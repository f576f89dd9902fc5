"""Rebuild the golden CSVs in ``tests/fixtures/`` from the independent oracles.

    python tests/regenerate_fixtures.py [OUT_DIR]    (default: tests/fixtures)

The spectrum rows come from companion-matrix roots and a quadrature box
kernel, the forms-check rows from the dense-array deformed derivative.
Both go through the commands' own row builders and CSV writer at their
default config and ``--seed 42``, so the bytes are the ones ``spectrum``
and ``forms-check`` must reproduce.  Nothing is written unless every
oracle row equals the implementation's.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

SEED = 42


def fixture_tables(seed: int = SEED) -> dict:
    """``{file name: (header, oracle rows, implementation rows)}``."""
    from exocalc.cli import DEFAULTS, forms_check_rows, spectrum_rows
    from exocalc.oracles import delta_quadrature, dense_exotic_d, spectrum_companion

    spec_cfg = copy.deepcopy(DEFAULTS["spectrum"])
    header, oracle = spectrum_rows(spec_cfg, spectrum_fn=spectrum_companion, delta_fn=delta_quadrature)
    tables = {"spectrum_golden.csv": (header, oracle, spectrum_rows(spec_cfg)[1])}
    forms_cfg = copy.deepcopy(DEFAULTS["forms-check"])
    header, oracle = forms_check_rows(forms_cfg, seed, d_fn=dense_exotic_d)
    tables["forms_check_golden.csv"] = (header, oracle, forms_check_rows(forms_cfg, seed)[1])
    return tables


def write_fixtures(out_dir: Path, tables: dict) -> list:
    """Write each golden file from its oracle rows."""
    from exocalc.cli import write_csv

    return [write_csv(out_dir / name, header, oracle) for name, (header, oracle, _) in tables.items()]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "fixtures"
    tables = fixture_tables()
    differ = [name for name, (_, oracle, impl) in tables.items() if oracle != impl]
    if differ:
        sys.exit(f"oracle and implementation rows differ in {', '.join(differ)}; nothing written")
    for path in write_fixtures(out, tables):
        print(path)
