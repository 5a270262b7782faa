"""The standing mutant list of ``tests/mutants.py`` matches the source: each
anchor occurs exactly once in its file, and each mutant changes it."""

import shutil

import mutants


def test_every_anchor_occurs_once_and_differs_from_its_mutant():
    assert mutants.stale_anchors(mutants.MUTANTS, mutants.ROOT) == []


def test_a_duplicated_anchor_is_flagged(tmp_path):
    mutant = mutants.MUTANTS[0]
    copy = tmp_path / mutant.path
    copy.parent.mkdir(parents=True)
    shutil.copy(mutants.ROOT / mutant.path, copy)
    assert mutants.stale_anchors([mutant], tmp_path) == []
    copy.write_text(copy.read_text() + f"# {mutant.old}\n")
    assert mutants.stale_anchors([mutant], tmp_path) == [
        f"{mutant.name!r}: {mutant.path}: {mutant.old!r} occurs 2 times"
    ]


def test_a_missing_anchor_and_a_mutant_that_changes_nothing_are_flagged(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    missing = mutants.Mutant("missing", "m.py", "x = 2", "x = 3")
    same = mutants.Mutant("same", "m.py", "x = 1", "x = 1")
    assert mutants.stale_anchors([missing, same], tmp_path) == [
        "'missing': m.py: 'x = 2' occurs 0 times",
        "'same': its new text is its old text",
    ]
