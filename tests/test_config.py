"""The env-knob registry: completeness, getter semantics, the CLI.

The registry's core promise is that it cannot rot: every ``REPRO_*``
variable the source tree reads must be declared in
:data:`repro.core.config.KNOBS` (the getters refuse undeclared names),
and the CLI (``python -m repro.core.config``) prints every declared
knob.  Completeness is enforced here by actually scanning the source
tree.  The getters must also preserve each parse site's historical
error contract — tests elsewhere assert on those exact messages.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.core import config


SRC = pathlib.Path(__file__).parent.parent / "src"


# -- registry completeness ---------------------------------------------------


def _env_names_in_source() -> set:
    """Every REPRO_* name mentioned anywhere under src/."""
    names = set()
    # Trailing-underscore forms like the ``REPRO_SERVICE_*`` prose in
    # docstrings are prefixes, not variables.
    pattern = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
    for path in SRC.rglob("*.py"):
        names.update(pattern.findall(path.read_text()))
    return names


def test_every_env_var_in_source_is_declared():
    undeclared = _env_names_in_source() - set(config.KNOBS)
    assert not undeclared, (
        f"env vars read in src/ but not registered in "
        f"repro.core.config.KNOBS: {sorted(undeclared)}"
    )


def test_every_declared_knob_is_actually_used():
    unused = set(config.KNOBS) - _env_names_in_source()
    # config.py itself declares them, so "used" means appearing in some
    # *other* module too; the scan covers config.py as well, so a knob
    # referenced nowhere else still shows up once.  Check per-knob.
    source = "\n".join(
        p.read_text() for p in SRC.rglob("*.py")
        if p.name != "config.py"
    )
    dead = [name for name in config.KNOBS if name not in source]
    assert not dead, f"declared but never read outside the registry: {dead}"
    assert not unused  # subsumed, kept for a clearer first failure


def test_knob_metadata_is_complete():
    for knob in config.KNOBS.values():
        assert knob.name.startswith("REPRO_")
        assert knob.kind in {"int", "float", "str", "flag", "path"}
        assert knob.description, knob.name
        assert knob.used_by, knob.name


# -- getter semantics --------------------------------------------------------


def test_undeclared_name_is_refused():
    with pytest.raises(KeyError, match="undeclared environment knob"):
        config.env_str("REPRO_NOT_A_REAL_KNOB")
    with pytest.raises(KeyError, match="register it"):
        config.env_int("REPRO_NOT_A_REAL_KNOB", 1)


def test_unset_and_empty_mean_default(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    assert config.env_int("REPRO_SWEEP_WORKERS", 3) == 3
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "   ")
    assert config.env_int("REPRO_SWEEP_WORKERS", 3) == 3
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
    assert config.env_int("REPRO_SWEEP_WORKERS", 3) == 8


def test_unparsable_value_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_PORT", "lots")
    with pytest.raises(ValueError, match=(
        "REPRO_SERVICE_PORT must be a TCP port, got 'lots'"
    )):
        config.env_int("REPRO_SERVICE_PORT", 8077, what="a TCP port")
    monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_CHUNK_TIMEOUT must be"):
        config.env_float("REPRO_CHUNK_TIMEOUT", None)


def test_flag_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_STRIDE", raising=False)
    assert config.env_flag("REPRO_SIM_STRIDE", True) is True
    monkeypatch.setenv("REPRO_SIM_STRIDE", "0")
    assert config.env_flag("REPRO_SIM_STRIDE", True) is False
    monkeypatch.setenv("REPRO_SIM_STRIDE", "1")
    assert config.env_flag("REPRO_SIM_STRIDE", True) is True
    monkeypatch.setenv("REPRO_SIM_STRIDE", "yes")
    assert config.env_flag("REPRO_SIM_STRIDE", False) is True


def test_raw_strips_whitespace(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "  reference  ")
    assert config.env_raw("REPRO_SIM_BACKEND") == "reference"
    assert config.env_str("REPRO_SIM_BACKEND", "vectorized") == "reference"


# -- parse sites route through the registry ----------------------------------


def test_sim_backend_routes_through_registry(monkeypatch):
    from repro.fabric import simulator

    monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
    assert simulator.resolve_backend(None) == "reference"
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert simulator.resolve_backend(None) == "vectorized"


# -- describe() and the CLI --------------------------------------------------


def test_describe_reports_current_values(monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_PORT", "9090")
    monkeypatch.delenv("REPRO_SERVICE_HOST", raising=False)
    rows = {r["name"]: r for r in config.describe()}
    assert rows["REPRO_SERVICE_PORT"]["current"] == "9090"
    assert rows["REPRO_SERVICE_HOST"]["current"] == "(default)"
    assert set(rows) == set(config.KNOBS)


def test_cli_prints_every_knob():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_SERVICE_BURST"] = "17"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.core.config"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for name in config.KNOBS:
        assert name in proc.stdout, f"CLI omitted {name}"
    assert "current=17" in proc.stdout
