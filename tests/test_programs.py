"""The one program registry: every CLI lists it, runners pick themselves.

``repro.snap.programs.PROGRAMS`` is the only name-keyed registry of
runnable scenarios.  These tests pin that every command-line front door
offers exactly its entries, that the wrong kind of program is refused
with a message naming the entries that do qualify, and that the
identity-counter sites the checker rewinds are real module counters.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SnapshotError
from repro.sim import check, par
from repro.snap import report, snapshot_run
from repro.snap.programs import PROGRAMS, registered


def _help_choices(main, capsys) -> list[str]:
    with pytest.raises(SystemExit):
        main(["--help"])
    return re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")


def test_every_cli_lists_exactly_the_registry(capsys):
    assert check.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == list(PROGRAMS)
    assert _help_choices(report.main, capsys) == list(PROGRAMS)
    assert _help_choices(par.main, capsys) == list(PROGRAMS)


def test_registry_splits_into_one_and_multi_world_entries():
    one, multi = registered(multi_world=False), registered(multi_world=True)
    assert sorted(one + multi) == sorted(PROGRAMS)
    assert multi == ["cluster-par", "control-par", "e14"]
    for name in PROGRAMS:
        assert PROGRAMS[name].name == name


def test_shards_mode_rejects_one_world_programs(capsys):
    with pytest.raises(SystemExit) as exc:
        check.main(["quickstart", "--shards", "1,2"])
    assert exc.value.code == 2
    assert "cluster-par, control-par, e14" in capsys.readouterr().err


def test_snapshot_rejects_multi_world_programs():
    with pytest.raises(SnapshotError, match="3 worlds") as exc:
        snapshot_run(PROGRAMS["cluster-par"]())
    assert ", ".join(registered(multi_world=False)) in str(exc.value)


def test_par_cli_rejects_shards_for_one_world_programs(capsys):
    with pytest.raises(SystemExit):
        par.main(["quickstart", "--shards", "2"])
    assert "cluster-par, control-par, e14" in capsys.readouterr().err


def test_counter_sites_are_live_module_counters():
    """Every site ``reset_global_counters``/``CounterScope`` rebinds must
    already hold an ``itertools.count`` at its declared start when the
    module is imported — a stale entry would plant a dead attribute.
    Runs in a fresh interpreter, before anything has reset a counter."""
    code = (
        "import importlib, itertools\n"
        "from repro.sim.check import _COUNTER_SITES\n"
        "for mod, attr, start in _COUNTER_SITES:\n"
        "    c = getattr(importlib.import_module(mod), attr, None)\n"
        "    assert isinstance(c, itertools.count), (mod, attr, c)\n"
        "    assert repr(c) == f'count({start})', (mod, attr, c)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
