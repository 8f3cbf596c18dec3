import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "workcounts.py")
HEAD = ("| # | run | problem | scheme | controller | nfe | accepted | rejected "
        "| max error | sha256[:16] of `u_final` | status |\n|" + "---|" * 11 + "\n")


def _table(path, rows, csv_digest, acceptance=0, sweep=0, rho_digest=None,
           sweep_digest="s0", src_lines=None, verdicts=(), config_digest=None):
    lines = [f"| {i} | " + " | ".join(row) + " |" for i, row in enumerate(rows, 1)]
    stability = ("" if rho_digest is None else
                 "stability RK3(2)5 3S*+ FSAL: exit 0\n")
    stability += "".join(f"verdict stability {name}: {value}\n" for name, value in verdicts)
    digests = ("" if rho_digest is None else
               "sha256 stability RK3(2)5 3S*+ FSAL main.csv: m0\n"
               f"sha256 stability RK3(2)5 3S*+ FSAL rho.csv: {rho_digest}\n")
    path.write_text(HEAD + "\n".join(lines) + f"\n\nacceptance suite: pytest exit {acceptance}\n"
                    f"dg_sweep vortex2d/bs3/pid@0.001: exit {sweep}\n" + stability +
                    "controller_search command: exit 0\n"
                    "sha256 dg_sweep vortex2d/bs3/pid@0.001 solution+history.csv: "
                    f"{sweep_digest}\n" +
                    ("" if config_digest is None else
                     "sha256 dg_sweep vortex2d/bs3/pid@0.001 via --config "
                     f"solution+history.csv: {config_digest}\n") +
                    f"sha256 search.csv: {csv_digest}\nsha256 search.json: abc\n" + digests +
                    ("" if src_lines is None else f"src lines: {src_lines}\n"))


def _diff(old, new):
    return subprocess.run([sys.executable, TOOL, "--diff", str(old), str(new)],
                          capture_output=True, text=True)


def _row(controller, nfe, accepted, rejected, error="0.1", state="00ff"):
    return ["acceptance", "P(4,) grid 0a1b2c3d t=0..1", "S", controller,
            str(nfe), str(accepted), str(rejected), error, state, "ok"]


def test_diff_lists_moved_rows_and_counts_rounding_only_changes(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    # two runs share a key: they pair in order, so only the second moves
    _table(old, [_row("A", 10, 5, 1), _row("A", 12, 6, 0), _row("B", 7, 3, 0),
                 _row("C", 9, 4, 0)], "d1")
    _table(new, [_row("A", 10, 5, 1, error="0.2"), _row("A", 14, 6, 1),
                 _row("B", 7, 3, 0), _row("D", 9, 4, 0)], "d2")
    done = _diff(old, new)
    assert done.returncode == 1
    out = done.stdout
    assert "moved, old -> new: 1\n" in out
    assert "| A | 12 -> 14 | 6 | 0 -> 1 | ok |" in out
    assert "max error or the `u_final` hash: 1\n" in out
    assert "identical in every column: 1\n" in out
    assert "Rows only in OLD: 1\n" in out and "| C | 9 |" in out
    assert "Rows only in NEW: 1\n" in out and "| D | 9 |" in out
    assert "search.csv: changed, d1 -> d2" in out
    assert "search.json: unchanged" in out


def test_diff_of_matching_tables_exits_0_and_status_lines_count(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    rows = [_row("A", 10, 5, 1), _row("B", 7, 3, 0)]
    _table(old, rows, "d1", sweep=2)
    _table(new, rows, "d1", sweep=2)
    done = _diff(old, new)
    assert done.returncode == 0
    assert "identical in every column: 2\n" in done.stdout
    assert "Exit status lines changed: 0 of 3\n" in done.stdout
    assert "dg_sweep vortex2d/bs3/pid@0.001: exit 2 in both" in done.stdout
    assert "dg_sweep vortex2d/bs3/pid@0.001 solution+history.csv: unchanged" in done.stdout
    # a red acceptance run differs even when every row is identical
    _table(new, rows, "d1", acceptance=1, sweep=2)
    done = _diff(old, new)
    assert done.returncode == 1
    assert "identical in every column: 2\n" in done.stdout
    assert "acceptance suite: pytest exit 0 -> pytest exit 1" in done.stdout


def test_diff_compares_the_stability_map_digests(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    rows = [_row("A", 10, 5, 1)]
    _table(old, rows, "d1", rho_digest="r1")
    _table(new, rows, "d1", rho_digest="r1")
    done = _diff(old, new)
    assert done.returncode == 0
    assert "stability RK3(2)5 3S*+ FSAL rho.csv: unchanged" in done.stdout
    assert "Exit status lines changed: 0 of 4\n" in done.stdout
    # identical rows, one moved stability map
    _table(new, rows, "d1", rho_digest="r2")
    done = _diff(old, new)
    assert done.returncode == 1
    assert "identical in every column: 1\n" in done.stdout
    assert "stability RK3(2)5 3S*+ FSAL rho.csv: changed, r1 -> r2" in done.stdout
    assert "stability RK3(2)5 3S*+ FSAL main.csv: unchanged" in done.stdout
    # identical rows and maps, one moved solution or history CSV
    _table(new, rows, "d1", rho_digest="r1", sweep_digest="s1")
    done = _diff(old, new)
    assert done.returncode == 1
    assert "solution+history.csv: changed, s0 -> s1" in done.stdout


def test_diff_names_a_config_run_that_differs_from_its_flag_run(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    rows = [_row("A", 10, 5, 1)]
    _table(old, rows, "d1", config_digest="s0")
    _table(new, rows, "d1", config_digest="s0")
    done = _diff(old, new)
    assert done.returncode == 0 and "differs from the flag run's" not in done.stdout
    # the same in both tables, but not the flag run's
    _table(old, rows, "d1", config_digest="s1")
    _table(new, rows, "d1", config_digest="s1")
    done = _diff(old, new)
    assert done.returncode == 1
    for side in ("OLD", "NEW"):
        assert (f"{side}: dg_sweep vortex2d/bs3/pid@0.001 via --config solution+history.csv "
                "differs from the flag run's\n") in done.stdout


def test_diff_lists_verdict_changes_apart_from_radius_moves(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    rows = [_row("A", 10, 5, 1)]
    before = [("BS3(2)3 FSAL", "stable true max_rho 0.9748335132752606"),
              ("SSP3(2)3", "stable false max_rho 1.25"),
              ("SSP3(2)4", "stable true max_rho 0.5")]
    _table(old, rows, "d1", verdicts=before)
    _table(new, rows, "d1", verdicts=before)
    done = _diff(old, new)
    assert done.returncode == 0
    assert "Stability verdicts changed: 0 of 3\n" in done.stdout
    assert "Stability max_rho moved: 0 of 3, largest relative move 0\n" in done.stdout
    # one radius moves by 1e-12 relative: no verdict changed, but the tables differ
    _table(new, rows, "d1",
           verdicts=before[:2] + [("SSP3(2)4", "stable true max_rho 0.5000000000005")])
    done = _diff(old, new)
    assert done.returncode == 1
    assert "Stability verdicts changed: 0 of 3\n" in done.stdout
    assert "Stability max_rho moved: 1 of 3, largest relative move 1e-12\n" in done.stdout
    # one verdict flips with its radius
    _table(new, rows, "d1", verdicts=before[:1] + [("SSP3(2)3", "stable true max_rho 0.75"),
                                                   before[2]])
    done = _diff(old, new)
    assert done.returncode == 1
    assert ("Stability verdicts changed: 1 of 3\n"
            "    stability SSP3(2)3: stable false -> true\n") in done.stdout
    assert "Stability max_rho moved: 1 of 3, largest relative move 0.4\n" in done.stdout
    # a table made before verdict lines were recorded still parses and compares
    _table(old, rows, "d1")
    _table(new, rows, "d1", verdicts=before)
    done = _diff(old, new)
    assert done.returncode == 0
    assert "Stability verdicts: not recorded in OLD\n" in done.stdout
    assert "identical in every column: 1\n" in done.stdout


def test_verdict_line_reads_the_stability_summary():
    summary = '{"max_rho": 0.9748335132752606, "points": 512, "stable": true}'
    assert _tool_print(f"tool._verdict({summary!r}), tool._verdict('')") == (
        "stable true max_rho 0.9748335132752606 -\n")


def test_diff_reports_the_src_line_count_without_counting_it(tmp_path):
    old, new = tmp_path / "old.md", tmp_path / "new.md"
    rows = [_row("A", 10, 5, 1)]
    _table(old, rows, "d1", src_lines=3278)
    _table(new, rows, "d1", src_lines=3261)
    done = _diff(old, new)
    assert done.returncode == 0
    assert "src lines: 3278 -> 3261\n" in done.stdout
    # a table from before the count was printed shows '-'
    _table(old, rows, "d1")
    done = _diff(old, new)
    assert done.returncode == 0
    assert "src lines: - -> 3261\n" in done.stdout


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "rkadapt"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nfour\nfive")     # wc -l: 2 newlines
    (package / "notes.txt").write_text("x\n" * 7)
    (package / "sub" / "c.py").write_text("x\n" * 5)
    assert _tool_print(f"tool._src_lines({str(tmp_path)!r})") == "4\n"


def test_json_digest_blanks_the_wall_time_only():
    text = '{\n "nfe": 5,\n "t_final": 1.0,\n "wall_time": 0.25\n}'
    same = text.replace("0.25", "1e-09")
    other = text.replace('"nfe": 5', '"nfe": 6')
    assert _tool_print(f"tool._text_digest({text!r}) == tool._text_digest({same!r}), "
                       f"tool._text_digest({text!r}) == tool._text_digest({other!r})"
                       ) == "True False\n"


def _tool_print(expr):
    """What the tool module prints for expr, in a fresh interpreter."""
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('workcounts', {TOOL!r}); "
            "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool); "
            f"print({expr})")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
