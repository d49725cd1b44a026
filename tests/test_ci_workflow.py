"""The CI workflow's layout, read as text (CI installs no YAML parser).

``.github/workflows/ci.yml`` runs each suite and each speed-up floor once:
``tier1`` runs the whole suite and then gates coverage per package from
its one data file, ``floors`` runs one step per benchmark file, and
``fallback`` runs the compiler-less path.  These tests pin what an edit
could lose without any job turning red: a job, a path or test that no
longer exists, a floor file run twice or not at all, a coverage gate
whose threshold or test scope drifted, and a one-writer grep that no
longer guards its module.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

FLOOR_FILES = ("bench_decode_latency", "bench_runtime_throughput",
               "bench_runtime_slo", "bench_coded_runtime",
               "bench_service_scaling")

#: Every per-package gate: ``--include`` -> (``--fail-under``, the
#: ``--contexts`` regexes: import time, then one per suite that counts).
GATES = {
    "src/repro/runtime/engine.py,src/repro/sphere/soft.py": (90, (
        r"^$", r"tests/test_engine\.py::", r"tests/test_batch_search\.py::",
        r"tests/test_frame_engine\.py::",
        r"tests/test_soft_and_ordering\.py::",
        r"tests/test_sphere_properties\.py::",
        r"tests/test_link_golden\.py::")),
    "src/repro/runtime/*": (90, (
        r"^$", r"tests/test_runtime\.py::", r"tests/test_runtime_qos\.py::",
        r"tests/test_obs\.py::")),
    "src/repro/obs/*": (90, (
        r"^$", r"tests/test_runtime\.py::", r"tests/test_runtime_qos\.py::",
        r"tests/test_obs\.py::")),
    "src/repro/coding/*": (92, (
        r"^$", r"tests/test_coding\.py::", r"tests/test_phy_chain\.py::",
        r"tests/test_runtime\.py::")),
    "src/repro/service/*": (90, (
        r"^$", r"tests/test_service\.py::", r"tests/test_obs\.py::",
        r"tests/test_runtime\.py::test_farm_shard_counts_bit_identical\b")),
}


def _code(text: str) -> str:
    """``text`` without its comment lines."""
    return "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith("#"))


def _jobs(text: str) -> dict[str, str]:
    """Job id -> the job's lines, in file order."""
    body = text.split("\njobs:\n", 1)[1]
    parts = re.split(r"^  ([\w-]+):[ \t]*$", body, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _steps(job: str) -> list[str]:
    return re.split(r"^      - ", job, flags=re.M)[1:]


def _test_contexts() -> list[str]:
    """The ``--cov-context=test`` label of every test the suite defines
    (``<node id>|run``, parametrisation left off)."""
    contexts = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        prefix = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and \
                    node.name.startswith("test"):
                contexts.append(f"{prefix}::{node.name}|run")
            elif isinstance(node, ast.ClassDef) and \
                    node.name.startswith("Test"):
                contexts += [f"{prefix}::{node.name}::{item.name}|run"
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and item.name.startswith("test")]
    return contexts


@pytest.fixture
def text() -> str:
    return WORKFLOW.read_text()


def test_three_jobs(text):
    assert list(_jobs(text)) == ["tier1", "floors", "fallback"]


def test_every_named_path_and_test_exists(text):
    named = re.findall(r"\b((?:tests|benchmarks)/[\w/]+\.py)(?:::(\w+))?",
                       text)
    assert len(named) >= 10
    for path, name in named:
        assert (ROOT / path).is_file(), path
        if name:
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(),
                             re.M), f"{path}::{name}"


def test_each_floor_file_runs_once_in_floors(text):
    code = _code(text)
    floors = _code(_jobs(text)["floors"])
    for name in FLOOR_FILES:
        pattern = rf"benchmarks/{name}\.py\b"
        assert len(re.findall(pattern, code)) == 1, name
        assert len(re.findall(pattern + r"[ \n]", floors)) == 1, name
    assert "--deselect" not in code
    assert not re.search(r"\s-k\s", code)


def test_every_context_regex_names_a_test(text):
    regexes = [rx for group in re.findall(r"--contexts='([^']*)'", text)
               for rx in group.split(",")]
    assert len(regexes) > len(GATES)
    contexts = _test_contexts()
    for regex in regexes:
        if regex != "^$":
            assert any(re.search(regex, context) for context in contexts), \
                regex


def test_coverage_gates_keep_their_thresholds_and_scopes(text):
    fast = re.search(r'pytest -x -q -m "not slow"\s+(.*)', text).group(1)
    assert {"--cov=repro", "--cov-context=test", "--cov-fail-under=92"} <= \
        set(fast.split())
    slow = re.search(r"pytest -x -q -m slow\s+(.*)", text).group(1)
    assert {"--cov=repro", "--cov-append", "--cov-context=test"} <= \
        set(slow.split())

    gates = {}
    for step in _steps(_jobs(text)["tier1"]):
        if "coverage report" not in step:
            continue
        assert "matrix.python-version == '3.12'" in step
        include = re.search(r"--include='([^']*)'", step).group(1)
        contexts = re.search(r"--contexts='([^']*)'", step).group(1)
        threshold = re.search(r"--fail-under=(\d+)", step).group(1)
        assert include not in gates, include
        gates[include] = (int(threshold), tuple(contexts.split(",")))
    assert gates == GATES


def test_outcome_rows_have_one_allocator(text):
    """``tier1`` greps ``src/repro`` for any module but
    ``runtime/queue.py`` reaching for ``tick_kernel.outcome``: a frame's
    outcome arrays are allocated where the frame is built, and nowhere
    else.  The step's pattern must match that one allocation (so it is
    not vacuous) and nothing outside ``queue.py``."""
    step = next(step for step in _steps(_jobs(text)["tier1"])
                if step.startswith("name: Only FrameJob allocates outcome"))
    assert "matrix.python-version == '3.12'" in step
    pattern = re.search(r"! grep -rnE --include='\*\.py'\s+'([^']*)' "
                        r"src/repro\s", step).group(1)
    assert re.findall(r"\| grep -v '([^']*)'", step) == [
        r"^src/repro/runtime/queue\.py:"]
    hits = {path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if re.search(pattern, path.read_text())}
    assert hits == {"src/repro/runtime/queue.py"}


def test_priority_class_has_one_writer(text):
    """``tier1`` greps ``src/repro`` for any assignment to ``.priority``
    but the two constructors' copy from the request: a frame's priority
    class is fixed at admission.  The step's pattern must match every
    form of assignment (so it is not vacuous) and no comparison, and
    under ``src/repro`` it must match exactly the two lines its filter
    lets through — ``FrameJob._init_state``'s and
    ``PendingFrame.__init__``'s."""
    step = next(step for step in _steps(_jobs(text)["tier1"])
                if step.startswith("name: A frame's priority class has one"))
    assert "matrix.python-version == '3.12'" in step
    pattern = re.search(r"! grep -rnE --include='\*\.py'\s+'([^']*)' "
                        r"src/repro\s", step).group(1)
    (allowed,) = re.findall(r"\| grep -vE '([^']*)'", step)
    for sample in ("job.priority = 3", "self.priority: int = 0",
                   "handle.priority += 1", "job.priority //= 2"):
        assert re.search(pattern, sample), sample
    for sample in ("if job.priority == 0:", "job.priority <= 2",
                   "job.priority != 1", "priority=job.priority)"):
        assert not re.search(pattern, sample), sample
    hits = [f"{path.relative_to(ROOT).as_posix()}:{number}:{line}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]
    assert [hit for hit in hits if not re.search(allowed, hit)] == []
    writers = set()
    for path in ("queue", "session"):
        tree = ast.parse((ROOT / "src" / "repro" / "runtime"
                          / f"{path}.py").read_text())
        for cls in ast.walk(tree):
            for method in (cls.body if isinstance(cls, ast.ClassDef)
                           else ()):
                writers.update(
                    (cls.name, getattr(method, "name", None))
                    for node in ast.walk(method)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "priority"
                    and isinstance(node.ctx, ast.Store))
    assert len(hits) == 2
    assert writers == {("FrameJob", "_init_state"),
                       ("PendingFrame", "__init__")}


def test_no_lapack_qr_under_src(text):
    """``tier1`` greps ``src/repro`` for a LAPACK QR: a frame's QR is one
    Householder program, written twice (``repro.sphere.qr`` and
    ``search_core.c``).  The step's pattern must match such a call (so
    it is not vacuous) and nothing under ``src/repro``."""
    step = next(step for step in _steps(_jobs(text)["tier1"])
                if step.startswith("name: No LAPACK QR under src/repro"))
    assert "matrix.python-version == '3.12'" in step
    pattern = re.search(r"""run: "! grep -rn '([^']*)' src/repro"$""",
                        step, re.M).group(1).replace("\\\\", "\\")
    assert re.search(pattern, "q, r = np.linalg.qr(matrix)")
    hits = [path.relative_to(ROOT).as_posix()
            for path in (ROOT / "src" / "repro").rglob("*")
            if path.is_file() and path.suffix in (".py", ".c")
            and re.search(pattern, path.read_text())]
    assert hits == []


def test_no_pickle_under_src(text):
    """``tier1`` greps ``src/repro`` for pickle and ``src/repro/service``
    for a pickling pipe call: messages cross the socket and the worker
    pipes in the declared wire schema.  Both greps must match a positive
    sample (so neither is vacuous) and nothing under their trees, and a
    hit in the first must fail the step as surely as one in the second."""
    step = next(step for step in _steps(_jobs(text)["tier1"])
                if step.startswith("name: No pickle under src/repro"))
    assert "matrix.python-version == '3.12'" in step
    run = " ".join(step.split("run: >", 1)[1].split())
    greps = re.findall(r"! grep -rnE --include='\*\.py' '([^']*)' (\S+)",
                       run)
    assert [tree for _, tree in greps] == ["src/repro", "src/repro/service"]
    assert run.count(" && ! grep ") == 1
    samples = {
        "src/repro": ("import pickle", "blob = pickle.dumps(obj)",
                      "np.load(path, allow_pickle=True)"),
        "src/repro/service": ("conn.send(message)",
                              "message = worker.conn.recv()"),
    }
    for pattern, tree in greps:
        for sample in samples[tree]:
            assert re.search(pattern, sample), (pattern, sample)
        hits = [path.relative_to(ROOT).as_posix()
                for path in (ROOT / tree).rglob("*.py")
                if re.search(pattern, path.read_text())]
        assert hits == [], tree


def test_core_runs_under_sanitizers(text):
    """``tier1`` (3.12) runs every suite that reaches the compiled core
    against a build under ASan and UBSan: the harness option
    ``--sanitize-core`` (``tests/conftest.py``) with both runtimes
    preloaded and leak checking off.  The sanitized flags keep the
    core a shared object and its float program's ``-ffp-contract=off``,
    and a UB report is fatal."""
    # By path: benchmarks/ has a conftest module of its own.
    spec = importlib.util.spec_from_file_location(
        "tests_conftest", ROOT / "tests" / "conftest.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    step = next(step for step in _steps(_jobs(text)["tier1"])
                if step.startswith("name: The core under ASan and UBSan"))
    assert "matrix.python-version == '3.12'" in step
    run = " ".join(step.split("run: >", 1)[1].split())
    assert run.startswith(
        'LD_PRELOAD="$(gcc -print-file-name=libasan.so) '
        '$(gcc -print-file-name=libubsan.so)" ASAN_OPTIONS=detect_leaks=0 ')
    # test_runtime_qos: evict, expire and cancel while lanes are in
    # flight, where a lane reading a frame's stacks after they are gone
    # would show.
    assert re.findall(r"tests/(\w+)\.py", run) == [
        "test_tick_kernel", "test_engine", "test_tail", "test_qr",
        "test_coding", "test_runtime_qos"]
    # A report aborts the process: sys-level capture lets it reach the log.
    assert run.split()[-2:] == ["--capture=sys", "--sanitize-core"]
    arguments = run.split(" python -m pytest ", 1)[1]
    assert not re.search(r"(^|\s)-(k|m)\s|--deselect", arguments)
    assert harness.SANITIZED_CFLAGS == (
        "-O1", "-g", "-fsanitize=address,undefined",
        "-fno-sanitize-recover=undefined", "-shared", "-fPIC",
        "-ffp-contract=off")
