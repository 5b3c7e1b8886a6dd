import os
import subprocess
import sys
import textwrap

import pytest

from hilbertkunz import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_summary(capsys):
    code, out, err = run_cli(
        ["compute", "--p", "2", "--gens", "x;y", "--q", "2,4,8"], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["q,phi", "2,4", "4,16", "8,64"]


def test_compute_staircase_example(capsys):
    code, out, _ = run_cli(
        ["compute", "--p", "2", "--gens", "x^3; x*y^2; y^3", "--q", "2,4"], capsys
    )
    assert code == 0
    assert "2,28" in out and "4,112" in out


def test_compute_echoes_config(capsys):
    code, out, _ = run_cli(
        ["compute", "--p", "3", "--gens", "x;y", "--q", "3"], capsys
    )
    assert code == 0
    assert "# p = 3" in out
    assert "# gens = x;y" in out


def test_compute_per_degree_csv(tmp_path, capsys):
    deg = tmp_path / "deg.csv"
    out_path = tmp_path / "summary.csv"
    code, _, _ = run_cli(
        [
            "compute",
            "--p",
            "2",
            "--gens",
            "x;y",
            "--q",
            "2",
            "--out",
            str(out_path),
            "--degrees-out",
            str(deg),
        ],
        capsys,
    )
    assert code == 0
    lines = [l for l in deg.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "q,m,colength"
    assert "2,0,1" in lines and "2,1,2" in lines and "2,2,1" in lines


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# smooth cubic over F_5\n"
        "p = 5\n"
        "vars = x,y,z\n"
        "hypersurface = x^3+y^3+z^3\n"
        "gens = x; y; z\n"
        "q = 5\n"
    )
    code, out, _ = run_cli(["compute", "--config", str(cfg)], capsys)
    assert code == 0
    assert "5,55" in out


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\ngens = x;y\nq = 2\n")
    code, out, _ = run_cli(["compute", "--config", str(cfg), "--q", "4"], capsys)
    assert code == 0
    assert "4,16" in out and "2,4" not in out


def test_splitting_report(capsys):
    code, out, _ = run_cli(
        ["splitting", "--p", "5", "--gens", "x^3; x*y^2; y^3"], capsys
    )
    assert code == 0
    assert "stabilized = yes" in out
    assert "nus = 4,5" in out
    assert "ehk = 7" in out
    assert "twists[q=5] = 20,25" in out


def test_formula_examples(capsys):
    cases = [
        (["formula", "--hn", "2:3/2", "--d", "1,1,1", "--degY", "3"], "9/4"),
        (["formula", "--plane-curve", "--h", "3", "--nu2", "5/3"], "7/3"),
        (["formula", "--semistable", "--d", "2,2,2", "--degY", "1"], "3"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.strip() == expected


def test_reconstruct_round_trip(tmp_path, capsys):
    table = tmp_path / "phi.csv"
    code, _, _ = run_cli(
        [
            "compute",
            "--p",
            "5",
            "--vars",
            "x,y,z",
            "--hypersurface",
            "x^3+y^3+z^3",
            "--gens",
            "x;y;z",
            "--q",
            "5,25",
            "--out",
            str(table),
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["reconstruct", "--table", str(table), "--bound", "1500", "--plane-curve-h", "3"],
        capsys,
    )
    assert code == 0
    assert "ehk = 9/4" in out
    assert "nu2 = 3/2" in out


def test_reconstruct_window_reads_the_ideal_from_the_header(tmp_path, capsys):
    """A `compute --out` table carries the ideal, so the window is 4 * sum(d_i) / q1
    = 12/5 for (x,y,z) at q = 5, 25; the same rows without the header keep 16/5."""
    table = tmp_path / "phi.csv"
    argv = ["compute", "--p", "5", "--vars", "x,y,z", "--hypersurface", "x^3+y^3+z^3",
            "--gens", "x;y;z", "--q", "5,25", "--out", str(table)]
    assert run_cli(argv, capsys)[0] == 0
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(line for line in table.read_text().splitlines(True)
                            if not line.startswith("#")))
    for path, window in ((table, "12/5"), (bare, "16/5")):
        code, out, _ = run_cli(["reconstruct", "--table", str(path)], capsys)
        assert code == 0
        assert "ehk = 9/4" in out
        assert f"window = {window}" in out


def test_reconstruct_default_bound_reads_p_from_prime_factor(tmp_path, capsys):
    """A table starting at q = 25 gets the same p = 5 and e = 3 as one
    starting at q = 5, and a table without q > 1 is a user error."""
    outputs = []
    for qs in ((5, 25, 125), (25, 125)):
        table = tmp_path / f"phi{len(qs)}.csv"
        table.write_text("q,phi\n" + "".join(f"{q},{7 * q * q}\n" for q in qs))
        code, out, _ = run_cli(["reconstruct", "--table", str(table)], capsys)
        assert code == 0
        outputs.append(out)
    for out in outputs:
        assert "ehk = 7" in out
        assert "denominator_bound = 500" in out
    flat = tmp_path / "flat.csv"
    flat.write_text("q,phi\n1,7\n1,7\n")
    code, _, err = run_cli(["reconstruct", "--table", str(flat)], capsys)
    assert code == 1
    assert "q > 1" in err


def test_reconstruct_refuses_q_off_the_powers_of_one_prime(tmp_path, capsys):
    """q = 1, 6, 8 and a row with q = 0 are user errors (exit 1), with or
    without --bound, and no traceback."""
    for qs in ((1, 6, 8), (0, 5, 25)):
        table = tmp_path / "phi.csv"
        table.write_text("q,phi\n" + "".join(f"{q},{7 * q * q}\n" for q in qs))
        for extra in ([], ["--bound", "500"]):
            code, out, err = run_cli(["reconstruct", "--table", str(table)] + extra, capsys)
            assert (code, out) == (1, "")
            assert "Traceback" not in err


def test_reconstruct_reads_p_near_2_31_from_q(tmp_path, capsys):
    """A table from q = p^2 with p = 2^31 - 1 reads p by an integer root, not
    by trial division up to p."""
    p = 2**31 - 1
    table = tmp_path / "phi.csv"
    table.write_text("q,phi\n" + "".join(f"{q},{7 * q * q}\n" for q in (p**2, p**3)))
    code, out, _ = run_cli(["reconstruct", "--table", str(table)], capsys)
    assert code == 0
    assert "ehk = 7" in out
    assert f"denominator_bound = {4 * p**3}" in out


def test_exit_code_user_error(capsys):
    # non-primary ideal
    code, _, err = run_cli(["compute", "--p", "2", "--gens", "x;x^2", "--q", "2"], capsys)
    assert code == 1
    # q not a power of p
    code, _, _ = run_cli(["compute", "--p", "2", "--gens", "x;y", "--q", "6"], capsys)
    assert code == 1
    # parse error in a generator
    code, _, _ = run_cli(["compute", "--p", "2", "--gens", "x;y+@", "--q", "2"], capsys)
    assert code == 1
    # bad flag should also map to the user-error exit code, not argparse's 2
    code, _, _ = run_cli(["compute", "--nonsense"], capsys)
    assert code == 1
    # missing p
    code, _, _ = run_cli(["compute", "--gens", "x;y", "--q", "2"], capsys)
    assert code == 1


def test_exit_code_internal_past_the_degree_bound(monkeypatch, capsys):
    """Colengths that never vanish at q = 2 (the primarity search at q = 1
    reads the true ones) pass the bound q*m0 + nvars*(q-1) = 4 of a primary
    ideal: one `internal error:` line and exit 4."""
    from hilbertkunz import engine

    runs = engine.runs

    def never_vanishing(ring, gens, q, top, s):
        if q == 1:
            yield from runs(ring, gens, q, top, s)
        else:
            yield 0, top + 1, 1, 0

    monkeypatch.setattr(engine, "runs", never_vanishing)
    code, out, err = run_cli(["compute", "--p", "2", "--gens", "x;y", "--q", "2"], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: no vanishing degree up to 4 for q=2 on a primary ideal\n"


@pytest.mark.parametrize("flag", ["--out", "--degrees-out"])
def test_unwritable_output_is_a_user_error(tmp_path, capsys, flag):
    """An output path in a missing directory gives one `error:` line, exit 1
    and no table on stdout: every destination is opened before any is written."""
    path = str(tmp_path / "missing" / "table.csv")
    code, out, err = run_cli(["compute", "--p", "2", "--gens", "x;y", "--q", "2", flag, path],
                             capsys)
    assert (code, out) == (cli.EXIT_USER, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_unwritable_degrees_out_leaves_no_summary_table(tmp_path, capsys):
    summary = tmp_path / "phi.csv"
    path = str(tmp_path / "missing" / "d.csv")
    code, out, err = run_cli(["compute", "--p", "2", "--gens", "x;y", "--q", "2",
                              "--out", str(summary), "--degrees-out", path], capsys)
    assert (code, out) == (cli.EXIT_USER, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert not summary.exists() or summary.read_text() == ""



def test_failed_run_keeps_an_existing_output_file(tmp_path, capsys):
    summary = tmp_path / "phi.csv"
    summary.write_text("keep\n")
    path = str(tmp_path / "missing" / "d.csv")
    code, out, err = run_cli(["compute", "--p", "2", "--gens", "x;y", "--q", "2",
                              "--out", str(summary), "--degrees-out", path], capsys)
    assert (code, out) == (cli.EXIT_USER, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert summary.read_text() == "keep\n"


def test_compute_replaces_a_longer_output_file(tmp_path, capsys):
    summary = tmp_path / "phi.csv"
    summary.write_text("old line\n" * 50)
    argv = ["compute", "--p", "2", "--gens", "x;y", "--q", "2,4"]
    code, table, _ = run_cli(argv, capsys)
    assert run_cli(argv + ["--out", str(summary)], capsys) == (cli.EXIT_OK, "", "")
    assert summary.read_text() == table


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout(capfd):
    code = cli.main(["compute", "--p", "2", "--gens", "x;y", "--q", "2", "--out", "/dev/stdout"])
    assert code == cli.EXIT_OK
    assert capfd.readouterr().out == "# gens = x;y\n# p = 2\n# q = 2\nq,phi\n2,4\n"


@pytest.mark.parametrize("gens", ["(" * 3000 + "x" + ")" * 3000 + ";y", "9" * 5000 + "*x;y"],
                         ids=["deep-nesting", "long-integer"])
def test_malformed_generator_is_one_parse_error_line(capsys, gens):
    """Nesting past the interpreter's stack, and an integer past its digit
    limit, are parse errors like any other (exit 1), not tracebacks."""
    code, out, err = run_cli(["compute", "--p", "5", "--gens", gens, "--q", "5"], capsys)
    assert (code, out) == (cli.EXIT_USER, "")
    assert err.startswith("parse error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, flag, kind", [("compute", "--config", "config"),
                                                 ("reconstruct", "--table", "table")])
def test_undecodable_input_file_is_a_user_error(tmp_path, capsys, command, flag, kind):
    path = tmp_path / "input.txt"
    path.write_bytes(b"p = 5\n\xff\n")
    code, out, err = run_cli([command, flag, str(path)], capsys)
    assert (code, out) == (cli.EXIT_USER, "")
    assert err == (f"error: cannot read {kind} {path}: 'utf-8' codec can't decode byte 0xff "
                   "in position 6: invalid start byte\n")


def test_verify_corpus_report_is_deterministic(capsys):
    """Eight PASS lines and the verdict on stdout, the same on every run; the
    timings go to stderr."""
    code, out, err = run_cli(["verify-corpus"], capsys)
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert [line.split(" [")[0] for line in lines[:8]] == [f"criterion {n}" for n in range(1, 9)]
    assert all("[PASS]" in line for line in lines[:8])
    assert lines[8:] == ["all criteria passed"]
    assert [line.split(" took ")[0] for line in err.splitlines()] == [
        f"criterion {n}" for n in range(1, 9)]
    assert run_cli(["verify-corpus"], capsys)[:2] == (cli.EXIT_OK, out)


@pytest.mark.parametrize("exponent", ["0", "-3"])
def test_splitting_needs_a_positive_max_exponent(capsys, exponent):
    code, out, err = run_cli(
        ["splitting", "--p", "5", "--gens", "x^3; x*y^2; y^3", "--max-exponent", exponent], capsys)
    assert code == cli.EXIT_USER
    assert out == ""
    assert err == f"error: max_exponent must be at least 1, got {exponent}\n"


def test_splitting_report_when_not_stabilized(capsys):
    """With one Frobenius exponent there is no pair of splitting types to compare."""
    code, out, err = run_cli(
        ["splitting", "--p", "5", "--gens", "x^3; x*y^2; y^3", "--max-exponent", "1"], capsys)
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == textwrap.dedent("""\
        # gens = x^3; x*y^2; y^3
        # p = 5
        ring = F_5[x,y]
        gens = x^3; x*y^2; y^3
        twists[q=5] = 20,25
        stabilized = no
        note = raise --max-exponent to push more Frobenius pullbacks
    """)


LOWERED_TWIST = textwrap.dedent("""
    import sys
    from hilbertkunz import cli, engine

    split = engine.split

    def lowered(ring, gens, q):
        s = split(ring, gens, q)
        if q == 5:
            s = s._replace(twists=[e - (j == 0) for j, e in enumerate(s.twists)])
        return s

    engine.split = lowered
    sys.exit(cli.main(["compute", "--p", "5", "--vars", "x,y,z", "--hypersurface",
                       "x^3+y^3+z^3", "--gens", "x;y;z", "--q", "5"]))
""")


def test_exit_code_internal_error():
    """A twist lowered at q = 5 fails hk_value's count and sum check: the CLI
    prints one `internal error:` line, no traceback, and exits 4."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", LOWERED_TWIST], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == cli.EXIT_INTERNAL == 4
    assert proc.stdout == ""
    assert proc.stderr == ("internal error: 6 twists summing to 50, expected 6 summing to 51: "
                           "[7, 8, 8, 9, 9, 9]\n")


def test_formula_mode_validation(capsys):
    code, _, err = run_cli(["formula", "--plane-curve", "--semistable"], capsys)
    assert code == 1
    code, _, _ = run_cli(["formula", "--plane-curve", "--h", "3"], capsys)
    assert code == 1


def test_smoothness_advisory(capsys):
    base = ["compute", "--vars", "x,y,z", "--gens", "x;y;z", "--check-smooth"]
    code, _, err = run_cli(
        base + ["--p", "7", "--hypersurface", "x^3-y^2*z", "--q", "7"], capsys
    )
    assert code == 0
    assert "singular point (0, 0, 1)" in err
    code, _, err = run_cli(
        base + ["--p", "5", "--hypersurface", "x^3+y^3+z^3", "--q", "5"], capsys
    )
    assert code == 0
    assert "no F_5-rational singular point" in err


def test_determinism(capsys):
    argv = ["compute", "--p", "5", "--gens", "x^2; x*y; y^2", "--q", "5,25"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_compute_rejects_free_ring_in_three_variables(capsys):
    code, out, err = run_cli(
        ["compute", "--p", "5", "--vars", "x,y,z", "--gens", "x;y;z", "--q", "5"], capsys
    )
    assert code == 1
    assert "cone" in err
