"""The project-invariant linter, against this repo and synthetic trees.

The positive test is the CI gate itself: the real tree must come back
finding-free.  The negative tests build miniature repository trees in
``tmp_path`` that each violate exactly one invariant and assert the
matching finding code — so a regression in any single check cannot
hide behind the others.
"""

import os
import textwrap

from repro.analysis import selfcheck


def test_repository_tree_is_clean():
    findings = selfcheck.run_selfcheck()
    assert findings == [], \
        "\n".join(f.render() for f in findings)


def test_repo_root_locates_the_tree():
    root = selfcheck.repo_root()
    assert os.path.isfile(os.path.join(root, "src", "repro",
                                       "errors.py"))


# ----------------------------------------------------------------------
# synthetic violating trees
# ----------------------------------------------------------------------
ERRORS_STUB = '''
class GoodError(Exception):
    pass

RETRYABLE = {"GoodError": False}
'''


def _tree(tmp_path, src_files=(), test_files=(), errors=ERRORS_STUB):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "tests" / "chaos").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "errors.py").write_text(
        textwrap.dedent(errors))
    for name, body in src_files:
        (tmp_path / "src" / name).write_text(textwrap.dedent(body))
    for name, body in test_files:
        (tmp_path / "tests" / name).write_text(textwrap.dedent(body))
    return str(tmp_path)


def _codes(tmp_path):
    return sorted(set(
        f.code for f in selfcheck.run_selfcheck(str(tmp_path))))


def test_clean_synthetic_tree(tmp_path):
    _tree(tmp_path,
          test_files=[("test_ok.py", "from x import GoodError\n")])
    assert _codes(tmp_path) == []


def test_unarmed_fault_point_is_found(tmp_path):
    _tree(tmp_path,
          src_files=[("svc.py",
                      'import faults\n'
                      'faults.declare("svc.crash", "svc.armed")\n')],
          test_files=[("test_ok.py", "from x import GoodError\n"),
                      (os.path.join("chaos", "test_arm.py"),
                       'POINT = "svc.armed"\n')])
    assert "unarmed-fault-point" in _codes(tmp_path)
    findings = selfcheck.run_selfcheck(str(tmp_path))
    assert any("svc.crash" in f.message for f in findings)
    assert not any("svc.armed" in f.message for f in findings)


def test_unclassified_and_untested_errors_are_found(tmp_path):
    _tree(tmp_path, errors='''
        class GoodError(Exception):
            pass

        class LonelyError(Exception):
            pass

        RETRYABLE = {"GoodError": False}
        ''',
          test_files=[("test_ok.py", "from x import GoodError\n")])
    codes = _codes(tmp_path)
    assert "unclassified-error" in codes
    assert "untested-error" in codes


def test_bare_except_is_found(tmp_path):
    _tree(tmp_path,
          src_files=[("oops.py",
                      "try:\n    pass\nexcept:\n    pass\n")],
          test_files=[("test_ok.py", "from x import GoodError\n")])
    assert "bare-except" in _codes(tmp_path)


def test_unsynced_tmp_rename_is_found(tmp_path):
    bad = '''
        import os

        def publish(path, data):
            with open(path + ".tmp", "w") as handle:
                handle.write(data)
            os.replace(path + ".tmp", path)
        '''
    good = '''
        import os

        def publish(path, data):
            with open(path + ".tmp", "w") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(path + ".tmp", path)
        '''
    _tree(tmp_path, src_files=[("bad.py", bad)],
          test_files=[("test_ok.py", "from x import GoodError\n")])
    assert "unsynced-rename" in _codes(tmp_path)

    _tree(tmp_path / "clean", src_files=[("good.py", good)],
          test_files=[("test_ok.py", "from x import GoodError\n")])
    assert _codes(tmp_path / "clean") == []


def test_buffer_manager_on_the_serving_path_is_found(tmp_path):
    """Invariant 6: only the per-task accounting helper may install
    or construct a buffer manager under server/ or in multiproc.py."""
    bad = '''
        from .buffer import BufferManager, set_manager

        def _worker_init():
            set_manager(BufferManager())
        '''
    good = '''
        from .buffer import BufferManager

        def _run_accounted(run):
            manager = BufferManager()
            return run(), manager
        '''
    _tree(tmp_path, test_files=[("test_ok.py",
                                 "from x import GoodError\n")])
    (tmp_path / "src" / "repro" / "monet").mkdir()
    module = tmp_path / "src" / "repro" / "monet" / "multiproc.py"
    module.write_text(textwrap.dedent(bad))
    findings = selfcheck.run_selfcheck(str(tmp_path))
    assert [f.code for f in findings] == \
        ["serving-path-buffer-manager"] * 2      # the call + the ctor
    # the same calls anywhere else in src/ are none of its business
    module.rename(tmp_path / "src" / "repro" / "monet" / "bench.py")
    assert _codes(tmp_path) == []
    (tmp_path / "src" / "repro" / "server").mkdir()
    (tmp_path / "src" / "repro" / "server" / "tasks.py").write_text(
        textwrap.dedent(good))
    assert _codes(tmp_path) == []


# ----------------------------------------------------------------------
# invariant 7: every value walker handles every canonical kind
# ----------------------------------------------------------------------
WALKER_MODULES = [os.path.join("repro", "monet", "multiproc.py"),
                  os.path.join("repro", "server", "protocol.py"),
                  os.path.join("repro", "server", "client.py")]


def _walker_tree(tmp_path, edit=None):
    """A synthetic tree holding verbatim copies of the three modules
    that walk shipped values, optionally with one of them edited."""
    _tree(tmp_path, test_files=[("test_ok.py",
                                 "from x import GoodError\n")])
    real = os.path.join(selfcheck.repo_root(), "src")
    for rel in WALKER_MODULES:
        with open(os.path.join(real, rel)) as handle:
            text = handle.read()
        if edit is not None and rel.endswith(edit[0]):
            assert edit[1] in text
            text = text.replace(edit[1], edit[2])
        target = tmp_path / "src" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return selfcheck.check_canonical_value_walkers(str(tmp_path))


def test_value_walkers_are_total_over_the_canonical_kinds(tmp_path):
    assert _walker_tree(tmp_path) == []


def test_walker_that_forgets_a_kind_is_found(tmp_path):
    # the digest loses its batch branch: a batch would fall through
    # to the unknown-type error instead of digesting as its rows
    findings = _walker_tree(tmp_path, edit=(
        "multiproc.py", "    elif is_batch(value):\n        _feed_table(",
        "    elif False:\n        _feed_table("))
    assert [f.code for f in findings] == ["canonical-value-walkers"]
    assert "_feed" in findings[0].message
    assert "'batch'" in findings[0].message


def test_new_kind_cannot_land_without_every_walker(tmp_path,
                                                   monkeypatch):
    # registering a kind without teaching the lint how walkers name it
    findings = _walker_tree(tmp_path, edit=(
        "multiproc.py", '"batch")', '"batch", "decimal")'))
    assert [f.code for f in findings] == ["canonical-kind-unknown"]
    # ... and teaching it flags every walker until each decides
    monkeypatch.setattr(selfcheck, "KIND_TOKENS", dict(
        selfcheck.KIND_TOKENS, decimal=("Decimal",)))
    findings = selfcheck.check_canonical_value_walkers(str(tmp_path))
    assert [f.code for f in findings] \
        == ["canonical-value-walkers"] * len(selfcheck.VALUE_WALKERS)


def test_renamed_walker_and_missing_registry_are_found(tmp_path):
    findings = _walker_tree(tmp_path, edit=(
        "client.py", "def _bare_value(", "def _unwrap("))
    assert [f.code for f in findings] == ["value-walker-missing"]
    findings = _walker_tree(tmp_path / "again", edit=(
        "multiproc.py", "CANONICAL_KINDS = (", "KINDS = ("))
    assert [f.code for f in findings] == ["canonical-kinds-untracked"]
