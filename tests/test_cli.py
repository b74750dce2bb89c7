"""CLI subcommands, exit codes, formats, and determinism."""

import os
import random
import re
import subprocess
import sys

import pytest

from surfcolor import cli, load_surfmap
from surfcolor.cli import gen_bouquet, gen_grid, gen_q13
from surfcolor.surface_map import save_surfmap

from map_reference import is_isomorphic


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_q13_shape():
    m = gen_q13()
    assert (m.num_vertices, m.num_edges, m.num_faces) == (13, 26, 13)
    assert m.euler_genus == 2
    assert set(m.face_lengths()) == {4}
    assert all(m.degree(v) == 4 for v in range(13))
    for orbit in m.faces:
        vs = {m.tgt[h] for h in orbit}
        i = min((i for i in range(13)), key=lambda i: vs != {i, (i + 1) % 13, (i + 5) % 13, (i + 6) % 13})
        assert vs == {i, (i + 1) % 13, (i + 5) % 13, (i + 6) % 13}


def test_gen_grid_shapes():
    m = gen_grid(3, 3)
    assert (m.num_vertices, m.num_edges, m.num_faces) == (9, 18, 9)
    m = gen_grid(4, 4)
    assert (m.num_vertices, m.num_edges, m.num_faces) == (16, 32, 16)
    # bipartite: 2-color by coordinate parity
    two = {i * 4 + j: (i + j) % 2 for i in range(4) for j in range(4)}
    from surfcolor.solver import verify_homomorphism

    assert verify_homomorphism(m, 3, two)


def test_gen_grid_rejects_small():
    from surfcolor.errors import SurfcolorError

    with pytest.raises(SurfcolorError):
        gen_grid(2, 3)


def test_solve_grid(capsys):
    code, out, _ = run_cli(capsys, "solve", "--grid", "3", "3", "--modulus", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("v0,0 ")
    colors = {}
    for line in lines:
        name, c = line.split()
        colors[name] = int(c)
    assert set(colors.values()) <= {0, 1, 2}


def test_solve_q13_none(capsys):
    code, out, _ = run_cli(capsys, "solve", "--q13", "--modulus", "3")
    assert code == 1
    assert out.strip() == "NONE"


def test_solve_oracle_agrees(capsys):
    code, _, _ = run_cli(capsys, "solve", "--q13", "--modulus", "3", "--oracle")
    assert code == 1
    code, _, _ = run_cli(capsys, "solve", "--grid", "3", "3", "--oracle")
    assert code == 0


def test_solve_bouquet_oracle_agrees_on_none(capsys):
    # a bouquet has loops, which no coloring into C_m survives
    code, out, err = run_cli(capsys, "solve", "--bouquet", "--oracle")
    assert (code, out, err) == (1, "NONE\n", "")


def test_solve_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "solve", "--grid", "3", "4")
    code2, out2, _ = run_cli(capsys, "solve", "--grid", "3", "4")
    assert (code1, out1) == (code2, out2)


def test_solve_grid_32x32_streams_without_recursion(capsys):
    # 1,024 faces: a recursive boundary stream would exceed Python's
    # default recursion limit here
    code, out, _ = run_cli(capsys, "solve", "--grid", "32", "32")
    assert code == 0
    assert len(out.splitlines()) == 1024


def test_solve_has_no_jobs_flag(capsys):
    code, _, err = run_cli(capsys, "solve", "--grid", "3", "3", "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


def test_stats_q13(capsys):
    code, out, _ = run_cli(capsys, "stats", "--q13")
    assert code == 0
    assert out == "genus 2\nqstar 1\nbstar 1\nfaces 13x4\n"


def test_dual_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "dual", "--grid", "3", "3")
    assert code == 0
    d = load_surfmap(out)
    assert is_isomorphic(d, __import__("surfcolor").dual(gen_grid(3, 3)))


def test_gen_emit_load_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--q13")
    assert code == 0
    m = load_surfmap(out)
    assert is_isomorphic(m, gen_q13())
    # solving the emitted file gives the same verdict
    path = tmp_path / "q13.surfmap"
    path.write_text(out, encoding="ascii")
    code, out2, _ = run_cli(capsys, "solve", "--map", str(path), "--modulus", "3")
    assert code == 1
    assert out2.strip() == "NONE"


def test_precolor_file(capsys, tmp_path):
    pc = tmp_path / "pre.txt"
    pc.write_text("v0,0 0\nv0,1 1\n", encoding="ascii")
    code, out, _ = run_cli(
        capsys, "solve", "--grid", "3", "3", "--precolor", str(pc)
    )
    assert code == 0
    lines = dict(l.split() for l in out.strip().splitlines())
    assert lines["v0,0"] == "0"
    assert lines["v0,1"] == "1"


def test_precolor_bad_color(capsys, tmp_path):
    pc = tmp_path / "pre.txt"
    pc.write_text("v0,0 7\n", encoding="ascii")
    code, _, err = run_cli(capsys, "solve", "--grid", "3", "3", "--precolor", str(pc))
    assert code == 2
    assert "error" in err


def test_precolor_unknown_vertex(capsys, tmp_path):
    pc = tmp_path / "pre.txt"
    pc.write_text("v9,9 0\n", encoding="ascii")
    code, _, err = run_cli(capsys, "solve", "--grid", "3", "3", "--precolor", str(pc))
    assert code == 2


def test_precolor_conflicting_colors(capsys, tmp_path):
    # the label v0,0 and the bare id 0 name the same vertex
    pc = tmp_path / "pre.txt"
    pc.write_text("v0,0 0\n0 1\n", encoding="ascii")
    code, out, err = run_cli(capsys, "solve", "--grid", "3", "3", "--precolor", str(pc))
    assert (code, out) == (2, "")
    assert err == "error: conflicting colors for vertex '0'\n"


def test_gen_bouquet_without_loops_is_invalid_input(capsys):
    code, out, err = run_cli(capsys, "gen", "--bouquet", "0")
    assert (code, out) == (2, "")
    assert err == "error: need at least one loop\n"


def test_bad_map_file(capsys, tmp_path):
    bad = tmp_path / "bad.surfmap"
    bad.write_text("nonsense\n", encoding="ascii")
    code, _, err = run_cli(capsys, "solve", "--map", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("option", ["--map", "--precolor"])
def test_non_ascii_input_file_is_invalid_input(capsys, tmp_path, option):
    # the byte sits in a comment, which the parser would skip; the file
    # is still refused as input, not reported as an internal error
    path = tmp_path / "input.txt"
    if option == "--map":
        args = ["--map", str(path)]
        path.write_bytes(b"# caf\xc3\xa9\nsurfmap 1\nhalfedges 2\nvertex 0: 0\nvertex 1: 1\n")
    else:
        args = ["--grid", "3", "3", "--precolor", str(path)]
        path.write_bytes(b"# caf\xc3\xa9\nv0,0 0\n")
    code, out, err = run_cli(capsys, "solve", *args)
    assert code == 2
    assert out == ""
    assert err == "error: %s: non-ASCII byte 0xc3 at offset 5\n" % path
    assert "Traceback" not in err


def test_missing_map_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--map", "/nonexistent/x.surfmap")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert cli.run(["solve"]) == 2
    assert cli.run(["frobnicate"]) == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_stats", broken)
    code, out, err = run_cli(capsys, "stats", "--q13")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_oracle_disagreement_exits_3(flags):
    # the check must survive python -O, which strips assert statements
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        "from surfcolor import cli\n"
        "real = cli.brute_force_extendable\n"
        "cli.brute_force_extendable = lambda *a: not real(*a)\n"
        "sys.exit(cli.run(['solve', '--grid', '3', '3', '--oracle']))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    p = subprocess.run(
        [sys.executable] + flags + ["-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr.startswith("internal error: AssertionError: oracle disagreement")


def test_oracle_vertex_limit_is_checked_before_the_solve(capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("the solver ran before the --oracle size check")

    monkeypatch.setattr(cli.solver, "extend_precoloring", no_solve)
    code, out, err = run_cli(capsys, "solve", "--grid", "4", "4", "--oracle")
    assert code == 2
    assert out == ""
    assert err == "error: --oracle supports at most 13 vertices\n"


@pytest.mark.parametrize("modulus", ["0", "1", "4", "-3"])
def test_polytope_rejects_bad_modulus(capsys, modulus):
    code, out, err = run_cli(capsys, "polytope", "--bouquet", "--modulus", modulus)
    assert code == 2
    assert out == ""
    assert err.startswith("error: modulus must be")


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_hollow2d_rejects_bound_below_one(capsys, bound):
    code, out, err = run_cli(capsys, "hollow2d-verify", "--smoke", "--bound", bound)
    assert code == 2
    assert out == ""
    assert err == "error: --bound must be at least 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--box", "-3", "9"), "error: box corner must be non-negative\n"),
        (("--box", "6", "-1"), "error: box corner must be non-negative\n"),
        (("--smoke", "--jobs", "0"), "error: --jobs must be at least 1\n"),
        (("--smoke", "--jobs", "-1"), "error: --jobs must be at least 1\n"),
    ],
)
def test_hollow2d_keeps_its_own_messages_for_bad_boxes_and_jobs(capsys, argv, message):
    # the library raises ValueError for these too; the CLI checks first
    code, out, err = run_cli(capsys, "hollow2d-verify", *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_polytope_bouquet(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--bouquet")
    assert code == 0
    assert out.splitlines() == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]


def test_polytope_one_loop_bouquet_is_none(capsys):
    # the dual of a one-loop bouquet is one edge, which carries no
    # nowhere-zero flow with boundary divisible by 3
    code, out, _ = run_cli(capsys, "polytope", "--bouquet", "1")
    assert (code, out) == (1, "NONE\n")


def test_hollow2d_smoke(capsys):
    code, out, err = run_cli(capsys, "hollow2d-verify", "--smoke")
    assert code == 0
    assert "verdict: verified" in out
    assert "unresolved hulls: 0" in out
    assert "wall time" in err  # timing lives on stderr, keeping stdout deterministic


def test_hollow2d_reports_throughput_on_stderr(capsys):
    code, _, err = run_cli(capsys, "hollow2d-verify", "--smoke")
    assert code == 0
    assert re.fullmatch(r"wall time: \d+\.\d\d s \([\d,]+ hulls/s\)\n", err), err


def test_hollow2d_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "hollow2d-verify", "--box", "4", "4")
    code2, out2, _ = run_cli(capsys, "hollow2d-verify", "--box", "4", "4", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [("--smoke", "--box", "5", "5"), ("--box", "5", "5", "--smoke")])
def test_hollow2d_smoke_and_box_are_exclusive(capsys, argv):
    code, out, err = run_cli(capsys, "hollow2d-verify", *argv)
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


def test_hollow2d_has_no_recheck_doubled_flag(capsys):
    code, out, err = run_cli(capsys, "hollow2d-verify", "--smoke", "--recheck-doubled")
    assert code == 2
    assert out == ""
    assert "--recheck-doubled" in err


def test_gen_output_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "--grid", "4", "3")
    _, out2, _ = run_cli(capsys, "gen", "--grid", "4", "3")
    assert out1 == out2


def mutate(rng, text, alphabet):
    """text with one to six random character replacements, insertions
    and deletions."""
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        op = rng.randrange(3)
        pos = rng.randrange(len(chars) + 1)
        if op == 1 or pos == len(chars):
            chars.insert(pos, rng.choice(alphabet))
        elif op == 0:
            chars[pos] = rng.choice(alphabet)
        else:
            del chars[pos]
    return "".join(chars)


def test_mutated_input_files_never_exit_3(capsys, tmp_path):
    # seeded fuzz of the file inputs: every run exits 0, 1 or 2, and an
    # invalid input is reported on exactly one stderr line
    rng = random.Random(419)
    bases = [save_surfmap(gen_grid(3, 3)), save_surfmap(gen_bouquet(2))]
    map_path, pre_path = tmp_path / "in.surfmap", tmp_path / "pre.txt"
    codes = {}
    for _ in range(1000):
        command = rng.choice(("solve", "stats", "dual", "polytope"))
        text = rng.choice(bases)
        if rng.random() < 0.8:
            text = mutate(rng, text, "0123456789 \nvertexsurfmaphalfedges:#-")
        map_path.write_text(text, encoding="ascii")
        argv = [command, "--map", str(map_path)]
        if command == "solve":
            pre = "v0 0\nv4 1\n" if rng.random() < 0.5 else "4 2 # v4\n"
            pre_path.write_text(mutate(rng, pre, "0123456789 \nv,#-x"), encoding="ascii")
            argv += ["--precolor", str(pre_path)]
        code, out, err = run_cli(capsys, *argv)
        codes[code] = codes.get(code, 0) + 1
        assert code in (0, 1, 2), (argv, text, err)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == "", err
    assert codes.get(2, 0) >= 500 and codes.get(0, 0) + codes.get(1, 0) >= 50, codes
