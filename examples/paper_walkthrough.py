#!/usr/bin/env python3
"""The paper, end to end: Figure 1 plus the three Section 5 examples.

Prints every table the paper prints — the extended database, the pruned
meta-relations, the meta-products, the masks — using the experiment
harness, so the output can be compared line by line with the paper.

Run:  python examples/paper_walkthrough.py
"""

from repro.experiments.runner import run_all


def main() -> None:
    for result in run_all(["E1", "E3", "E4", "E5"]):
        print(result.render())
        print()


if __name__ == "__main__":
    main()
