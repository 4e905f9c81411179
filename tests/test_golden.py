"""Golden hashes of the shipped-default runs.

Each subcommand runs through `cli.main` at the shipped defaults with
`--seed 7 --threads 1`, and the SHA-256 of its CSV, its `.meta.json` and
its printed stdout must match `golden.json`.  A change that moves any of
these bytes on purpose records the new hashes with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the entry of this host's key.  The bytes depend on numpy's
random streams and on the rounding of its float kernels, so each entry is
keyed by numpy's major.minor version and a fingerprint of the kernels the
runs use; a host with no entry for its key skips the test and names it.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cavreg.cli import main
from cavreg.harness import EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden.json"
ARGS = ["--seed", "7", "--threads", "1"]


def host_key() -> str:
    """numpy major.minor and a hash of exp, log, power and lgamma over a
    fixed vector, the float kernels whose last bits reach the outputs."""
    x = np.linspace(1e-3, 60.0, 1001)
    values = [np.exp(-x), np.log(x), np.power(x, 0.37), np.array([math.lgamma(v) for v in x])]
    kernels = hashlib.sha256(b"".join(v.tobytes() for v in values)).hexdigest()[:16]
    return "numpy-%s.%s-%s" % (*np.__version__.split(".")[:2], kernels)


def digests(out_dir: Path) -> dict[str, str]:
    """{"<command> <file>": sha256} of the five shipped-default runs."""
    out = {}
    for command in sorted(exp.command for exp in EXPERIMENTS.values()):
        csv, stdout = out_dir / f"{command}.csv", io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([command, *ARGS, "--out", str(csv)]) == 0
        files = {"csv": csv.read_bytes(), "meta.json": Path(f"{csv}.meta.json").read_bytes(),
                 "stdout": stdout.getvalue().encode()}
        out |= {f"{command} {name}": hashlib.sha256(data).hexdigest()
                for name, data in files.items()}
    return out


def test_shipped_defaults_match_their_golden_hashes(tmp_path):
    key = host_key()
    golden = json.loads(GOLDEN.read_text()).get(key)
    if golden is None:
        pytest.skip(f"tests/golden.json has no entry for {key}")
    got = digests(tmp_path)
    moved = sorted(name for name in golden | got if golden.get(name) != got.get(name))
    assert not moved, f"bytes moved under {key}: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entry = digests(Path(tmp))
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table[host_key()] = entry
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {host_key()} to {GOLDEN}")
