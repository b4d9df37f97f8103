"""Fixed small instances for the many_reps and audit_grid workloads.

Run as the set-up process of those workloads:

    python3 perfbench/inputs.py OUT_DIR NAME [NAME ...]

writes NAME_strata.csv and NAME_rates.csv for each named instance with
pgsynth's own table writers, the way `pgsynth fixture` writes the
published-scale instance. Each instance pins its expected counts to
total * weights: the rate of stratum i is weights[i] / n[i], which
build_prior rescales so the prior expected total equals the observed one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    n: tuple
    weights: tuple
    total: int


# The demo instance is pgsynth.fixtures.demo_table / demo_rates.
INSTANCES = {
    # criterion 05's sampler instance
    "c05": Instance(n=(40, 160, 90), weights=(2 / 9, 3 / 9, 4 / 9), total=8),
    # criterion 05's weights at an audit-sized total
    "tri100": Instance(n=(40, 160, 90), weights=(2 / 9, 3 / 9, 4 / 9), total=100),
    "quad24": Instance(n=(40, 160, 90, 70), weights=(0.22, 0.24, 0.26, 0.28), total=24),
}


def observed_counts(inst: Instance) -> list[int]:
    """floor(total * w) per stratum, with the remainder on the first stratum."""
    y = [int(inst.total * w) for w in inst.weights]
    y[0] += inst.total - sum(y)
    return y


def write_instance(out_dir: Path, name: str) -> None:
    from pgsynth.fixtures import demo_rates, demo_table
    from pgsynth.strata import RatesTable, StrataTable

    if name == "demo":
        table, rates = demo_table(), demo_rates()
    else:
        inst = INSTANCES[name]
        keys = tuple((f"s{i}",) for i in range(len(inst.n)))
        table = StrataTable(dim_names=("g",), keys=keys, n=inst.n, y=observed_counts(inst))
        rates = RatesTable(
            dim_names=("g",),
            rates={k: w / n for k, w, n in zip(keys, inst.weights, inst.n)},
        )
    table.to_csv(out_dir / f"{name}_strata.csv")
    rates.to_csv(out_dir / f"{name}_rates.csv")


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: inputs.py OUT_DIR NAME [NAME ...]", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in argv[1:]:
        write_instance(out_dir, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
