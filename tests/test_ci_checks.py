"""tests/ci_checks.py's argument handling and its tie to the workflow; no gate
runs here, so no process is started."""

import pathlib
import re
import sys

import pytest

import ci_checks

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


@pytest.fixture()
def ran(monkeypatch):
    """The gates replaced by recorders; the names they ran, in order."""
    names = []

    def gate(name):
        def run(tmp):
            assert tmp.is_dir()
            names.append(name)
            if name == "workers":
                raise ci_checks.GateFailed("planted")
        return run

    monkeypatch.setattr(ci_checks, "GATES", {name: gate(name) for name in ci_checks.GATES})
    return names


def test_no_arguments_runs_every_gate_in_order(ran, capsys):
    assert ci_checks.main([]) == 1
    assert ran == ["oracle", "workers", "mask-nnz", "prefix-identities", "hash-seeds"]
    out = capsys.readouterr().out
    assert "FAILED workers: planted" in out and "gates: 4 passed, 1 failed (workers)" in out


@pytest.mark.parametrize("name,code", [("oracle", 0), ("workers", 1), ("hash-seeds", 0)])
def test_only_runs_the_named_gate(ran, name, code):
    assert ci_checks.main(["--only", name]) == code
    assert ran == [name]


@pytest.mark.parametrize("argv", [["--only", "nope"], ["--only"], ["oracle"]])
def test_bad_arguments_exit_2(ran, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ci_checks.main(argv)
    assert exc.value.code == 2
    assert ran == []


def test_help_names_every_gate(capsys):
    with pytest.raises(SystemExit) as exc:
        ci_checks.main(["--help"])
    assert exc.value.code == 0
    out = re.sub(r"\s+", "", capsys.readouterr().out)  # argparse may wrap a name at its hyphen
    assert all(name in out for name in ci_checks.GATES)


def test_the_workflow_runs_each_gate_in_one_step():
    called = re.findall(r"^\s+run: python tests/ci_checks.py --only (\S+)$", WORKFLOW.read_text(encoding="utf-8"), re.M)
    assert called == list(ci_checks.GATES)


def test_the_installed_script_is_used_where_there_is_one(monkeypatch):
    monkeypatch.setattr(ci_checks.shutil, "which", lambda name: f"/bin/{name}")
    assert ci_checks.command() == ["/bin/prefix-global"]
    monkeypatch.setattr(ci_checks.shutil, "which", lambda name: None)
    assert ci_checks.command() == [sys.executable, "-m", "prefix_global.cli"]


@pytest.mark.skipif(not hasattr(ci_checks.os, "sched_setaffinity"), reason="os has no sched_setaffinity")
def test_one_core_pins_the_child(monkeypatch):
    core = min(ci_checks.os.sched_getaffinity(0))
    pinned = []
    monkeypatch.setattr(ci_checks.os, "sched_setaffinity", lambda pid, cores: pinned.append((pid, cores)))
    preexec = ci_checks.one_core()
    assert pinned == []
    preexec()  # in the child, before it starts the CLI
    assert pinned == [(0, {core})]


def test_one_core_fails_the_gate_where_the_host_cannot_pin(monkeypatch):
    monkeypatch.delattr(ci_checks.os, "sched_setaffinity", raising=False)
    with pytest.raises(ci_checks.GateFailed, match="cannot pin"):
        ci_checks.one_core()
