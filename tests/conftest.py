import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from tailkit.powerlaw import PowerLawModel, pl_sample  # noqa: E402


@pytest.fixture(scope="session")
def pareto_file(tmp_path_factory):
    """20 000 Pareto(2.5) values, one per line under a header, to 8 decimals."""
    path = tmp_path_factory.mktemp("data") / "pareto.csv"
    s = pl_sample(PowerLawModel(alpha=2.5, xmin=1.0), 20_000, seed=7)
    path.write_text("value\n" + "\n".join(f"{v:.8f}" for v in s.values),
                    encoding="utf-8")
    return path
