"""Bad CLI input exits 2 with one ``error:`` line, never a traceback.

``repro.cli.main`` turns every ``ValueError`` (the library's config
errors) and ``OSError`` (unreadable or unwritable paths) into that
contract in one place, so it holds for every command, and nothing is
printed to stdout first: an output path whose directory is missing is
refused before the run.
"""

from __future__ import annotations

import pytest

from repro.cli import main

RUN = ["run", "--n", "64", "--algorithm", "push-pull", "--seed", "1"]


def _error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("flag", ["--json", "--telemetry", "--trace"])
@pytest.mark.parametrize("reps", ["1", "4"])
def test_unwritable_output_path(tmp_path, capsys, flag, reps):
    path = tmp_path / "missing" / "out.json"
    assert main([*RUN, "--reps", reps, flag, str(path)]) == 2
    assert str(path) in _error_line(capsys)


def test_unknown_delay_model_lists_the_choices(capsys):
    assert main([*RUN, "--delay", "bogus"]) == 2
    assert _error_line(capsys).startswith(
        "error: unknown delay model 'bogus'; choose from ["
    )


def test_unreadable_telemetry_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "none.jsonl")]) == 2
    _error_line(capsys)
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("not json\n")
    assert main(["report", str(garbled)]) == 2
    _error_line(capsys)
