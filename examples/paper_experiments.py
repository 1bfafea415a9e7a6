"""Regenerate every table and figure of the paper's Section 7.

This drives the same experiment functions the benchmark suite uses and
prints each reproduced table next to the paper's reported numbers.
Expect a few minutes of runtime at full scale; pass ``--smoke`` for a
fast, smaller-data pass.

Run with:  python examples/paper_experiments.py [--smoke]
"""

import sys

from repro.bench.experiments import (
    ablation_table,
    ccc_experiment,
    fig8a_level_table,
    fig8a_range_table,
    fig8a_speedups,
    fig8b_range_table,
    fig8b_speedups,
    jmax_table,
)


def main() -> None:
    scale = "smoke" if "--smoke" in sys.argv else "full"
    experiments = (
        fig8a_speedups,
        fig8a_level_table,
        fig8a_range_table,
        fig8b_speedups,
        fig8b_range_table,
        jmax_table,
        ccc_experiment,
        ablation_table,
    )
    for experiment in experiments:
        print(experiment(scale=scale).render())
        print()


if __name__ == "__main__":
    main()
