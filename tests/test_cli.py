import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from modalforget import interpolation, or_, var
from modalforget.cli import run


def _run(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_prove_derivable_exit_zero():
    code, out, _ = _run(["prove", "--logic", "kd", "=> ~[1]false"])
    assert code == 0
    assert "[BoxD]" in out and "[InitBot]" in out


def test_prove_not_derivable_exit_one():
    code, out, _ = _run(["prove", "--logic", "kt", "p => <1>(p & q)"])
    assert code == 1
    assert out.strip() == "not derivable"


def test_prove_json_schema():
    code, out, _ = _run(["prove", "--logic", "k", "--format", "json", "p & q => p"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "derivation/1"

    def walk(node):
        assert set(node) >= {"sequent", "rule", "premises"}
        assert set(node["sequent"]) >= {"ant", "suc"}
        for f in node["sequent"]["ant"] + node["sequent"]["suc"]:
            assert "op" in f
        for sub in node["premises"]:
            walk(sub)

    walk(obj)


def test_prove_latex():
    code, out, _ = _run(["prove", "--logic", "k", "--format", "latex", "p => p"])
    assert code == 0
    assert out.startswith("\\begin{prooftree}")


def test_prove_kt_json_has_store():
    code, out, _ = _run(["prove", "--logic", "kt", "--format", "json",
                         "[1]p => [1]p"])
    assert code == 0
    obj = json.loads(out)
    assert "store" in obj["sequent"]
    inner = obj["premises"][0]["sequent"]
    assert inner["store"] == [{"op": "box", "agent": 1,
                               "sub": {"op": "var", "name": "p"}}]


def test_interpolate_text_and_exit():
    code, out, _ = _run(["interpolate", "--logic", "k", "--forget", "p",
                         "--side", "post", "p & q"])
    assert code == 0
    assert out.strip() == "~~q"


def test_interpolate_verify_report():
    code, out, _ = _run(["interpolate", "--logic", "k", "--forget", "p",
                         "--side", "post", "--verify-bound", "3", "p & q"])
    assert code == 0
    assert "vocabulary: ok" in out and "extremality: ok" in out


def test_interpolate_json():
    code, out, _ = _run(["interpolate", "--logic", "k", "--forget", "p",
                         "--side", "pre", "--format", "json",
                         "--verify-bound", "2", "p | q"])
    assert code == 0
    obj = json.loads(out)
    assert obj["interpolant"] == {"op": "var", "name": "q"}
    assert obj["report"]["implication_ok"] is True


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_verify_clause_exits_one(monkeypatch, fmt):
    # ``I | q`` is implied by ``p & r`` but no longer implies ``r``.
    true_post = interpolation.post_interpolant
    monkeypatch.setattr(interpolation, "post_interpolant",
                        lambda logic, a, forget: or_(true_post(logic, a, forget), var("q")))
    code, out, _ = _run(["interpolate", "--logic", "k", "--forget", "p",
                         "--side", "post", "--format", fmt,
                         "--verify-bound", "3", "p & r"])
    assert code == 1
    if fmt == "json":
        report = json.loads(out)["report"]
        assert report["implication_ok"] is True and report["extremality_ok"] is False
    else:
        assert "implication: ok" in out and "extremality: FAILED" in out


@pytest.mark.parametrize("logic", ["k", "kd", "kt"])
def test_interpolate_two_variables_verifies(logic):
    code, out, _ = _run(["interpolate", "--logic", logic, "--forget", "p,q",
                         "--verify-bound", "4", "<1>(p & q) | [2]r"])
    assert code == 0
    assert "extremality: ok" in out


def test_interpolate_raw_sequent():
    code, out, _ = _run(["interpolate", "--logic", "k", "--forget", "p",
                         "--raw", "p, q => p"])
    assert code == 0
    assert out.strip() == "~false"


def test_interpolate_raw_reproduces_golden_sequent():
    code, out, _ = _run([
        "interpolate", "--logic", "k", "--forget", "p", "--raw",
        "[1](q & p), [2](s | r), [2]r => [3]r, [2]s",
    ])
    assert code == 0
    assert out.strip() == (
        "~[1]~~q | ~[2]~((~r | ~s) & (~r | ~r)) | ~[2]~((~r | ~s) & (~r | ~r))"
        " | [2]((s | ~r | ~s) & (s | ~r | ~r)) | [3]r"
    )


def test_interpolate_raw_requires_single_variable():
    code, _, err = _run(["interpolate", "--logic", "k", "--forget", "p,q",
                         "--raw", "p => q"])
    assert code == 2
    assert "exactly one" in err


def test_eliminate():
    code, out, _ = _run(["eliminate", "--logic", "k", "forall p.(p | q)"])
    assert code == 0
    assert out.strip() == "q"


def test_eliminate_json_trace():
    code, out, _ = _run(["eliminate", "--logic", "kt", "--format", "json",
                         "forall p. [1]p"])
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == {"op": "box", "agent": 1,
                             "sub": {"op": "bot"}}
    assert len(obj["trace"]) == 1


def test_countermodel_found_and_json():
    code, out, _ = _run(["countermodel", "--logic", "kt", "--format", "json",
                         "p => <1>(p & q)"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "model/1"
    assert set(obj) >= {"worlds", "root", "relations", "valuation"}


def test_countermodel_absent_exit_one():
    code, out, _ = _run(["countermodel", "--logic", "k", "p => p"])
    assert code == 1
    assert "no countermodel" in out


def test_parse_error_exit_two_with_span():
    code, _, err = _run(["prove", "--logic", "k", "p => ("])
    assert code == 2
    assert "parse error" in err and "^" in err


def test_l2_input_to_prove_is_parse_error():
    code, _, err = _run(["prove", "--logic", "k", "forall p. p => q"])
    assert code == 2
    assert "second-order" in err


def test_usage_error_exit_two():
    code, _, _ = _run(["prove", "--logic", "nope", "p => p"])
    assert code == 2


def test_verify_bound_below_one_is_usage_error():
    code, out, err = _run(["interpolate", "--logic", "k", "--forget", "p",
                           "--verify-bound", "0", "p"])
    assert (code, out) == (2, "")
    assert "--verify-bound" in err and "at least 1" in err


def test_repeated_forget_variable_is_usage_error():
    code, out, err = _run(["interpolate", "--logic", "k", "--forget", "p,p",
                           "p & q"])
    assert (code, out) == (2, "")
    assert "more than once" in err


def test_negative_depth_is_usage_error():
    code, out, err = _run(["countermodel", "--logic", "k", "--depth", "-1",
                           "p => [1]p"])
    assert (code, out) == (2, "")
    assert "--depth" in err and "at least 0" in err


@pytest.mark.parametrize("text", ["~" * 20_000 + "p => q",
                                  " & ".join(["p"] * 20_000) + " => q"],
                         ids=["negation-chain", "conjunction-chain"])
def test_deep_input_is_usage_error(text):
    code, out, err = _run(["prove", "--logic", "k", text])
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


def test_stdin_input(monkeypatch):
    code, out, _ = _run(["prove", "--logic", "k", "-"],
                        stdin_text="p => p", monkeypatch=monkeypatch)
    assert code == 0
    assert "[Init]" in out


def test_file_input(tmp_path):
    path = tmp_path / "sequent.txt"
    path.write_text("p & q => p", encoding="utf-8")
    code, out, _ = _run(["prove", "--logic", "k", "--file", str(path)])
    assert code == 0
    assert "[LAnd]" in out


def test_missing_file_exit_two():
    code, _, err = _run(["prove", "--logic", "k", "--file", "/nonexistent/x"])
    assert code == 2


def test_directory_as_file_is_usage_error(tmp_path):
    code, out, err = _run(["prove", "--logic", "k", "--file", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_non_utf8_file_is_usage_error(tmp_path):
    path = tmp_path / "sequent.txt"
    path.write_bytes(b"p => \xff")
    code, out, err = _run(["prove", "--logic", "k", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not UTF-8" in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_readme_examples_run():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("modalforget ")]
    assert len(examples) >= 6
    for line in examples:
        command, _, comment = line.partition("#")
        code, _, err = _run(shlex.split(command)[1:])
        assert code == (1 if comment.strip().startswith("exit 1") else 0), (line, err)


def _python(args):
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_cli():
    proc = _python(["-m", "modalforget.cli", "prove", "--logic", "k", "p => p"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[Init] p => p\n", "")


def test_outputs_deterministic():
    argv = ["interpolate", "--logic", "kt", "--forget", "p", "<1>(p & q)"]
    first = _run(argv)
    second = _run(argv)
    assert first == second


# Interleaved in one process, each call must behave as if run alone: every
# subcommand in every format, a usage error, a parse error, and
# ``--verify-bound`` followed by a call without it.
REUSE_ARGVS = [
    ["interpolate", "--logic", "k", "--forget", "p", "--verify-bound", "3", "p & q"],
    ["interpolate", "--logic", "k", "--forget", "p", "p & q"],
    ["prove", "--logic", "k", "p & q => p"],
    ["countermodel", "--logic", "kt", "--format", "json", "p => <1>(p & q)"],
    ["countermodel", "--logic", "k", "--depth", "-1", "p => [1]p"],
    ["eliminate", "--logic", "kd", "--format", "latex", "forall p.(p | [1]q)"],
    ["prove", "--logic", "kt", "--format", "json", "[1]p => [1]p"],
    ["prove", "--logic", "k", "p => ("],
    ["interpolate", "--logic", "kd", "--forget", "p", "--side", "pre",
     "--format", "latex", "p | [1]q"],
    ["eliminate", "--logic", "k", "forall p.(p | q)"],
    ["countermodel", "--logic", "kt", "--format", "latex", "p => <1>(p & q)"],
    ["prove", "--logic", "kd", "--format", "latex", "=> ~[1]false"],
    ["interpolate", "--logic", "kt", "--forget", "p", "--format", "json",
     "<1>(p & q)"],
    ["eliminate", "--logic", "kt", "--format", "json", "forall p. [1]p"],
    ["countermodel", "--logic", "k", "p => p"],
]
_ALONE = """import sys
from modalforget.cli import run
sys.exit(run(sys.argv[1:]))
"""


def test_repeated_runs_match_runs_alone(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    interleaved = [_run(argv) for argv in REUSE_ARGVS]
    for argv, got in zip(REUSE_ARGVS, interleaved):
        alone = _python(["-c", _ALONE, *argv])
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
    assert {code for code, _, _ in interleaved} == {0, 1, 2}


@pytest.mark.parametrize("flags", [["--verify-bound", "3"], ["--side", "pre"],
                                   ["--side", "post"]])
def test_interpolate_raw_rejects_interpolant_options(flags):
    code, out, err = _run(["interpolate", "--logic", "k", "--forget", "p",
                           "--raw", *flags, "p => q"])
    assert code == 2 and out == ""
    assert err.startswith("error: --raw does not take " + flags[0]), err
