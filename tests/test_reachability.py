"""Every function in `src/open5gsim` is entered by some run, or is listed in
`tests/unreached.txt` with the reason nothing enters it.

The corpus runs in a fresh interpreter with `sys.setprofile` installed before
`open5gsim` is imported, so import-time code counts too. The profiler sees
each module's code as the import runs it, and every function is found in the
constants of its module's code, nested functions, lambdas, methods and
property accessors included. A function is matched by its code object, not
by a name, so `functools.cache` wrappers and equal names do not confuse it.
A function's name is its module, then the names of the classes and functions
it sits in, then its own; the n-th function of one name in one scope (a
property's setter, the n-th lambda) gets `#n`. Comprehensions are not
functions here, and what they hold is named as if they were inlined.

The check fails both ways: a function that no run enters and the list does
not name must be removed or listed, and a listed function that some run
enters must come off the list.

Run as a script, this file runs the corpus and prints the unreached names.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "open5gsim"
UNREACHED = Path(__file__).with_name("unreached.txt")

_CO_NEWLOCALS = 0x2  # set on a function's code; unset on a module's or a class body's
_COMPREHENSIONS = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>")


def listed() -> dict[str, str]:
    """`tests/unreached.txt`: each function's name and why nothing enters it."""
    names = {}
    for line in UNREACHED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, why = line.partition(" ")
            assert why.strip(), f"unreached.txt gives no reason for {name}"
            assert name not in names, f"unreached.txt lists {name} twice"
            names[name] = why.strip()
    return names


def test_every_function_is_entered_or_listed():
    script = str(Path(__file__).resolve())
    done = subprocess.run([sys.executable, script], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    unreached = set(json.loads(done.stdout.splitlines()[-1]))
    names = listed()
    assert sorted(unreached - names.keys()) == [], "no run enters these: remove them or list them in unreached.txt"
    assert sorted(names.keys() - unreached) == [], "a run enters these: take them off unreached.txt"


# -- the child: the corpus under the profiler ------------------------------------


def functions(code: CodeType, prefix: str, seen: Counter | None = None):
    """(name, code) of each function defined in `code`, at any depth."""
    seen = Counter() if seen is None else seen  # names in this scope
    for const in code.co_consts:
        if not isinstance(const, CodeType):
            continue
        if const.co_name in _COMPREHENSIONS:  # its contents belong to this scope
            yield from functions(const, prefix, seen)
            continue
        seen[const.co_name] += 1
        name = f"{prefix}.{const.co_name}" + (f"#{seen[const.co_name]}" if seen[const.co_name] > 1 else "")
        if const.co_flags & _CO_NEWLOCALS:
            yield name, const
        yield from functions(const, name)


def _cli(expect: int, *argv: str) -> None:
    from open5gsim import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    assert code == expect, f"open5g-sim {' '.join(argv)[:200]} exited {code}, not {expect}: {err.getvalue()[:500]}"


def _scenario_with(tmp: Path, name: str, text: str, *script: str) -> str:
    path = tmp / f"{name}.scn"
    path.write_text(text + "".join(line + "\n" for line in script))
    return str(path)


def corpus(tmp: Path) -> None:
    """The CLI on every bundled scenario and on the bad inputs of the CI's
    exit-code steps, and the benchmark's workloads at seed 1."""
    from open5gsim import scenario

    # every bundled scenario: run, verify against itself, and each node's table
    for path in sorted(Path("scenarios").glob("*.scn")):
        trace = str(tmp / f"{path.stem}.trace")
        _cli(0, "run", str(path), "-o", trace)
        _cli(0, "verify", trace, "--golden", trace)
        for node in scenario.load_scenario(str(path)).topology.nodes:
            _cli(0, "table", str(path), "--node", node.name, "--at", "100000")
    fig6 = "goldens/fig6_initial_access.trace"
    _cli(0, "verify", str(tmp / "initial_access.trace"), "--golden", fig6)
    _cli(1, "verify", str(tmp / "initial_access.trace"), "--golden", "goldens/multi_rat.full.trace")

    # the CI's exit-code steps
    initial = Path("scenarios/initial_access.scn").read_text()
    out = str(tmp / "out.trace")
    _cli(3, "run", _scenario_with(tmp, "bad_rrc", initial, "30 send_uplink_data ue1 3 ff"), "-o", out)
    reconfigured = b'{"fields":{},"kind":"RrcReconfigurationComplete"}'
    for name, doc in (("trailing_rrc", reconfigured + b" x"), ("spaced_rrc", b" " + reconfigured + b" ")):
        _cli(3, "run", _scenario_with(tmp, name, initial, f"30 send_uplink_data ue1 3 {doc.hex()}"), "-o", out)
    _cli(2, "run", _scenario_with(tmp, "neg_tick", initial, "-5 send_uplink_data ue1 3 ff"), "-o", out)
    long_tick = "1" + "0" * 699 + " send_uplink_data ue1 1 00"
    _cli(2, "run", _scenario_with(tmp, "long_tick", initial, long_tick), "-o", out)
    long_hex = "30 send_uplink_data ue1 3 " + "ab" * 1399 + "zz"
    _cli(2, "run", _scenario_with(tmp, "long_hex", initial, long_hex), "-o", out)
    long_ue = initial.replace("ue1", "u" * 3000) + "[session]\nue = " + "u" * 3000 + "\nid = 1\ndrbs = 5\n"
    _cli(2, "run", _scenario_with(tmp, "long_ue", long_ue), "-o", out)
    _cli(0, "run", _scenario_with(tmp, "ue_amf", initial.replace("ue1", "amf")), "-o", out)
    _cli(2, "run", _scenario_with(tmp, "gnb_space", initial.replace("gnb1", "gnb 1")), "-o", out)
    _cli(2, "run", str(tmp / "no_such.scn"), "-o", out)
    _cli(2, "verify", str(tmp / "no_such.trace"), "--golden", fig6)
    _cli(2, "verify", str(tmp), "--golden", fig6)
    _cli(2, "verify", fig6, "--golden", fig6, "--channels", "srb9")
    golden = Path(fig6).read_bytes()
    bad_traces = {
        "not_utf8": b"\377\3761 0 a b SRB0 X 0000000000000000\n",
        "crlf": golden.replace(b"\n", b"\r\n"),
        "cr": golden.replace(b"\n", b"\r"),
        "big_step": b"1" * 5000 + b" 0 a b SRB0 X 0000000000000000\n",
    }
    for name, data in bad_traces.items():
        (tmp / f"{name}.trace").write_bytes(data)
        _cli(2, "verify", str(tmp / f"{name}.trace"), "--golden", fig6)
    lines = golden.splitlines(keepends=True) * 200  # spans many read slices
    (tmp / "long.trace").write_bytes(b"".join(lines))
    lines[3000] = lines[3000].replace(b"\n", b" x\n")
    (tmp / "long_bad.trace").write_bytes(b"".join(lines))
    _cli(0, "verify", str(tmp / "long.trace"), "--golden", str(tmp / "long.trace"))
    _cli(2, "verify", str(tmp / "long_bad.trace"), "--golden", str(tmp / "long.trace"))

    # the benchmark's workloads, and one pass under its span recorder
    import workloads
    from spans import SpanRecorder

    for name in workloads.SHAPES:
        workload = workloads.generate(name, 1)
        rep = workloads.run_once(workload, str(tmp))
        assert workloads.check(workload, rep) == 0, name
        assert workloads.attach_ticks(rep.sim), name
    recorder = SpanRecorder()
    with recorder.patched():
        workloads.run_once(workloads.generate("dataplane_small", 1), str(tmp))
    assert recorder.profile().calls


def main() -> None:
    entered: dict[int, CodeType] = {}  # id -> code, kept so that no id is reused

    def profile(frame, event, _arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.setprofile(profile)  # before anything imports open5gsim
    try:
        with tempfile.TemporaryDirectory() as tmp:
            corpus(Path(tmp))
    finally:
        sys.setprofile(None)
    package = PACKAGE.resolve()
    modules = [
        code
        for code in entered.values()
        if code.co_name == "<module>" and Path(code.co_filename).resolve().parent == package
    ]
    assert len(modules) == len(list(package.glob("*.py"))), "a module of the package was not imported"
    unreached = [
        name
        for module in modules
        for name, code in functions(module, Path(module.co_filename).stem)
        if id(code) not in entered
    ]
    print(json.dumps(sorted(unreached)))


if __name__ == "__main__":
    main()
