import json
import subprocess
import sys

import pytest

from longspan.cli import main
from longspan.geometry import Point
from longspan.instances import (
    GenSpec, format_tree, generate, read_neighborhoods, read_points, read_tree,
    write_neighborhoods, write_points, write_tree,
)
from longspan.neighborhoods import Neighborhood, NeighborhoodSet
from longspan.noncrossing import solve_ncst
from longspan.report import SolveReport
from longspan.svg import render_svg
from longspan.trees import Tree, tree_length


def run(*argv) -> int:
    return main(list(argv))


def test_gen_points_deterministic(tmp_path):
    out1 = tmp_path / "a.pts"
    out2 = tmp_path / "b.pts"
    for out in (out1, out2):
        assert run("gen", "--kind", "uniform_square", "--n", "8", "--seed", "3",
                   "--out", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_rejects_bad_kind(tmp_path, capsys):
    rc = run("gen", "--kind", "nope", "--n", "8", "--seed", "3",
             "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "unknown generator kind" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run("gen", "--kind", "uniform_square")  # missing required flags
    assert exc.value.code == 1


def test_ncst_two_point_pipeline(tmp_path):
    pts = tmp_path / "p.pts"
    pts.write_text("0 0\n1 1\n", encoding="utf-8")
    tree = tmp_path / "t.json"
    assert run("ncst", "--points", str(pts), "--out", str(tree)) == 0
    rep = read_tree(tree)
    assert rep.tree.edges == ((0, 1),)
    assert run("check", "--tree", str(tree), "--points", str(pts)) == 0


def test_full_ncst_pipeline_with_oracle_and_ratio(tmp_path, capsys):
    pts = tmp_path / "p.pts"
    tree = tmp_path / "t.json"
    oracle = tmp_path / "o.json"
    report = tmp_path / "r.json"
    svg = tmp_path / "t.svg"
    assert run("gen", "--kind", "uniform_square", "--n", "6", "--seed", "11",
               "--out", str(pts)) == 0
    assert run("ncst", "--points", str(pts), "--out", str(tree),
               "--svg", str(svg), "--svg-regions", "--report", str(report)) == 0
    assert run("oracle", "ncst", "--in", str(pts), "--out", str(oracle)) == 0
    assert run("check", "--tree", str(tree), "--points", str(pts)) == 0
    assert run("check", "--tree", str(oracle), "--points", str(pts)) == 0
    capsys.readouterr()
    assert run("ratio", "--approx", str(tree), "--oracle", str(oracle)) == 0
    line = capsys.readouterr().out.strip()
    ratio = float(line)
    assert len(line.split(".")[1]) == 6
    assert 0.519 <= ratio <= 1.0 + 1e-9
    # an oracle tree of another instance: fewer points, or other points
    for argv in (("--n", "5", "--seed", "11"), ("--n", "6", "--seed", "12")):
        assert run("gen", "--kind", "uniform_square", *argv, "--out", str(pts)) == 0
        assert run("oracle", "ncst", "--in", str(pts), "--out", str(oracle)) == 0
        assert run("ratio", "--approx", str(tree), "--oracle", str(oracle)) == 2
        assert "solution does not match instance" in capsys.readouterr().err
    body = svg.read_text(encoding="utf-8")
    assert body.startswith("<svg") and "<ellipse" in body
    metrics = json.loads(report.read_text(encoding="utf-8"))
    assert metrics["algorithm"] == "ncst"
    assert 0 < metrics["metrics"]["ratio_to_upper"] <= 1


def test_ncst_no_prune_writes_the_unpruned_report(tmp_path):
    pts = tmp_path / "p.pts"
    pruned, unpruned = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "--kind", "two_cluster", "--n", "10", "--seed", "3",
               "--epsilon", "0.001", "--out", str(pts)) == 0
    assert run("ncst", "--points", str(pts), "--out", str(pruned)) == 0
    assert run("ncst", "--points", str(pts), "--out", str(unpruned), "--no-prune") == 0
    text = unpruned.read_text(encoding="utf-8")
    assert text == format_tree(solve_ncst(read_points(pts), prune=False))
    a, b = (json.loads(f.read_text(encoding="utf-8"))["metrics"] for f in (pruned, unpruned))
    assert (a["pruned"], b["pruned"]) == (True, False)
    assert a["guesses_tried"] != b["guesses_tried"]


def test_full_stnb_pipeline(tmp_path, capsys):
    nbs = tmp_path / "n.nbs"
    tree = tmp_path / "t.json"
    oracle = tmp_path / "o.json"
    assert run("gen", "--kind", "random_neighborhoods", "--n", "4", "--seed", "5",
               "--vertices-per-nb", "3", "--out", str(nbs)) == 0
    assert run("stnb", "--nbs", str(nbs), "--out", str(tree),
               "--svg", str(tmp_path / "t.svg"), "--svg-regions") == 0
    assert run("oracle", "stnb", "--in", str(nbs), "--out", str(oracle)) == 0
    assert run("check", "--tree", str(tree), "--nbs", str(nbs)) == 0
    assert run("check", "--tree", str(oracle), "--nbs", str(nbs)) == 0
    capsys.readouterr()
    assert run("ratio", "--approx", str(tree), "--oracle", str(oracle)) == 0
    assert 0.524 <= float(capsys.readouterr().out) <= 1.0 + 1e-9


def _scaled(points, s):
    return tuple(Point(p.x * s, p.y * s) for p in points)


def test_svg_does_not_depend_on_the_input_scale(tmp_path):
    # scaling by a power of two is exact, so every drawn coordinate scales back
    src, svg = tmp_path / "in", tmp_path / "t.svg"
    for spec in (GenSpec("uniform_square", 9, 1), GenSpec("two_cluster", 8, 1, epsilon=0.001),
                 GenSpec("random_neighborhoods", 6, 1, vertices_per_nb=3)):
        inst = generate(spec)
        drawings = set()
        for s in (1.0, 2.0 ** -40, 2.0 ** -10, 2.0 ** 10):
            if isinstance(inst, NeighborhoodSet):
                write_neighborhoods(src, NeighborhoodSet([
                    Neighborhood(nb.color, tuple(_scaled(ring, s) for ring in nb.polygons))
                    for nb in inst.neighborhoods]))
                argv = ("stnb", "--nbs", str(src))
            else:
                write_points(src, _scaled(inst, s))
                argv = ("ncst", "--points", str(src))
            assert run(*argv, "--out", str(tmp_path / "t.json"), "--svg", str(svg),
                       "--svg-regions") == 0
            drawings.add(svg.read_bytes())
        assert len(drawings) == 1, spec


def test_svg_skips_an_ellipse_below_its_focal_distance():
    # no ellipse has a focal sum below |ab| = 1: 0.5 draws nothing, 1.5 one
    regions = {"a": Point(0.0, 0.0), "b": Point(1.0, 0.0), "ellipse_sums": [0.5, 1.5]}
    assert render_svg([(0.0, 0.0), (1.0, 0.0)], regions=regions).count("<ellipse") == 1


def test_oracle_guard_exit_code(tmp_path, capsys):
    pts = tmp_path / "p.pts"
    assert run("gen", "--kind", "uniform_square", "--n", "12", "--seed", "2",
               "--out", str(pts)) == 0
    rc = run("oracle", "ncst", "--in", str(pts), "--out", str(tmp_path / "t.json"))
    assert rc == 2
    assert "instance too large for oracle" in capsys.readouterr().err


def test_check_rejects_corrupted_tree(tmp_path, capsys):
    pts = tmp_path / "p.pts"
    tree = tmp_path / "t.json"
    assert run("gen", "--kind", "uniform_square", "--n", "5", "--seed", "9",
               "--out", str(pts)) == 0
    assert run("ncst", "--points", str(pts), "--out", str(tree)) == 0
    payload = json.loads(tree.read_text(encoding="utf-8"))
    payload["edges"] = payload["edges"][:-1]  # drop an edge: not spanning
    tree.write_text(json.dumps(payload), encoding="utf-8")
    rc = run("check", "--tree", str(tree), "--points", str(pts))
    assert rc == 2
    assert "not spanning" in capsys.readouterr().out

    # the two diagonals of a square cross
    square = tuple(Point(float(x), float(y)) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
    crossing = Tree(4, ((0, 2), (1, 3), (0, 1)))
    write_tree(tree, SolveReport("ncst", "star", square, crossing, tree_length(crossing, square)))
    assert run("check", "--tree", str(tree)) == 2
    assert "FAIL: crossing edges (0, 2) and (1, 3)" in capsys.readouterr().out
    # a valid tree over other points than the points file's
    assert run("ncst", "--points", str(pts), "--out", str(tree)) == 0
    other = tmp_path / "q.pts"
    other.write_text("0 0\n1 0\n0 1\n1 1\n2 2\n", encoding="utf-8")
    assert run("check", "--tree", str(tree), "--points", str(other)) == 2
    assert "tree points do not match the points file" in capsys.readouterr().out
    # a stored length far off a tiny tree's own: the tolerance is relative
    write_points(pts, _scaled(generate(GenSpec("uniform_square", 7, 1)), 2.0 ** -40))
    assert run("ncst", "--points", str(pts), "--out", str(tree)) == 0
    report = read_tree(tree)
    assert 3e-12 < report.length < 4e-12
    for stored in (0.0, 5e-10):
        report.length = stored
        write_tree(tree, report)
        assert run("check", "--tree", str(tree), "--points", str(pts)) == 2
        assert "FAIL: stored length" in capsys.readouterr().out


def test_malformed_tree_file_exits_2(tmp_path, capsys):
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps({"format": 1, "points": [[0, 0], [1, 0]], "edges": [[0]],
                                "length": 1.0}), encoding="utf-8")
    for argv in (("check", "--tree", str(tree)),
                 ("ratio", "--approx", str(tree), "--oracle", str(tree))):
        assert run(*argv) == 2
        assert "malformed tree file" in capsys.readouterr().err
    # a one-point tree has length zero, which no ratio can divide by
    lone = tmp_path / "lone.json"
    write_tree(lone, SolveReport("oracle-ncst", "oracle", (Point(0.0, 0.0),), Tree(1, ()), 0.0))
    assert run("ratio", "--approx", str(lone), "--oracle", str(lone)) == 2
    assert "oracle tree has nonpositive length" in capsys.readouterr().err


def test_neighborhood_file_with_superscript_count_exits_2(tmp_path, capsys):
    nbs, tree = tmp_path / "n.nbs", tmp_path / "t.json"
    assert run("gen", "--kind", "random_neighborhoods", "--n", "3", "--seed", "4",
               "--out", str(nbs)) == 0
    assert run("stnb", "--nbs", str(nbs), "--out", str(tree)) == 0
    nbs.write_text("nbs \u00b2\n", encoding="utf-8")
    for argv in (("stnb", "--nbs", str(nbs), "--out", str(tree)),
                 ("check", "--tree", str(tree), "--nbs", str(nbs))):
        assert run(*argv) == 2
        assert "line 1: malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("points", [[None, 0], [1, 0]]), ("points", [5, [1, 0]]),
                                          ("length", None), ("length", "x"), ("metrics", 5)])
def test_tree_file_with_malformed_values_exits_2(tmp_path, capsys, field, value):
    payload = {"format": 1, "points": [[0, 0], [1, 0]], "edges": [[0, 1]], "length": 1.0}
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(dict(payload, **{field: value})), encoding="utf-8")
    for argv in (("check", "--tree", str(tree)),
                 ("ratio", "--approx", str(tree), "--oracle", str(tree))):
        assert run(*argv) == 2
        assert "malformed tree file" in capsys.readouterr().err


def test_check_rejects_wrong_representatives(tmp_path, capsys):
    nbs = tmp_path / "n.nbs"
    tree = tmp_path / "t.json"
    assert run("gen", "--kind", "random_neighborhoods", "--n", "3", "--seed", "6",
               "--out", str(nbs)) == 0
    assert run("stnb", "--nbs", str(nbs), "--out", str(tree)) == 0
    payload = json.loads(tree.read_text(encoding="utf-8"))
    payload["points"][0] = [123.0, 456.0]  # not a vertex of any neighborhood
    tree.write_text(json.dumps(payload), encoding="utf-8")
    rc = run("check", "--tree", str(tree), "--nbs", str(nbs))
    assert rc == 2
    assert "representative" in capsys.readouterr().out

    # two tree points for three colors
    vertices = read_neighborhoods(nbs).points
    pair = (Point(*vertices[0]), Point(*vertices[-1]))
    edge = Tree(2, ((0, 1),))
    write_tree(tree, SolveReport("stnb", "star", pair, edge, tree_length(edge, pair)))
    assert run("check", "--tree", str(tree), "--nbs", str(nbs)) == 2
    assert "not one representative per color" in capsys.readouterr().out

    # every tree point is some vertex, but colors 1..n-1 cannot all be
    # matched: a backtracking matcher takes factorial time to find that
    n = 30
    rings = [((0, 0), (5, 5))] + [((0, 0), (k, 1)) for k in range(2, n)] + [((9, n),)]
    crafted = NeighborhoodSet([Neighborhood(k + 1, (ring,)) for k, ring in enumerate(rings)])
    write_neighborhoods(nbs, crafted)
    points = tuple(Point(0.0, 0.0) for _ in range(n - 1)) + (Point(5.0, 5.0),)
    star = Tree(n, tuple((k, n - 1) for k in range(n - 1)))
    write_tree(tree, SolveReport("stnb", "star", points, star, tree_length(star, points)))
    rc = run("check", "--tree", str(tree), "--nbs", str(nbs))
    assert rc == 2
    assert "not one representative per color" in capsys.readouterr().out


def test_check_matches_representatives_along_a_long_augmenting_path(tmp_path, capsys):
    # color 1 is {P0, P1499}, color c is {P(c-2), P(c-1)} and color 1500 is
    # {P1498}: matching the tree points P0..P1499 in order ends with one
    # augmenting path through every color, which a recursive search cannot take
    n = 1500
    pts = [Point(float(k), float(k * k % 7)) for k in range(n)]
    rings = [(pts[0], pts[n - 1])] + [(pts[c - 2], pts[c - 1]) for c in range(2, n)]
    rings.append((pts[n - 2],))
    nbs, tree = tmp_path / "n.nbs", tmp_path / "t.json"
    chain = NeighborhoodSet([Neighborhood(k + 1, (ring,)) for k, ring in enumerate(rings)])
    write_neighborhoods(nbs, chain)
    path = Tree(n, tuple((k, k + 1) for k in range(n - 1)))
    write_tree(tree, SolveReport("stnb", "path", tuple(pts), path, tree_length(path, pts)))
    assert run("check", "--tree", str(tree), "--nbs", str(nbs)) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_bench_paper_constants(tmp_path):
    out = tmp_path / "bench.json"
    assert run("bench", "--suite", "paper-constants", "--seed", "0",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    res = payload["results"]
    assert abs(res["lf_length"] - 0.9464) < 5e-4
    assert abs(res["f1_at_d"] - 0.913117) < 1e-5
    assert abs(res["omega_neighborhood"] - 0.815) < 1e-3
    assert all(abs(v) < 1e-9 for v in res["identity_residuals"].values())
    # byte-determinism of report files
    out2 = tmp_path / "bench2.json"
    assert run("bench", "--suite", "paper-constants", "--seed", "0",
               "--out", str(out2)) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_bench_ratios_and_lemmas(tmp_path):
    out = tmp_path / "ratios.json"
    assert run("bench", "--suite", "ratios", "--seed", "1", "--out", str(out)) == 0
    res = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert res["ncst_worst_ratio"] >= 0.519
    assert res["stnb_worst_ratio"] >= 0.524

    out = tmp_path / "lemmas.json"
    assert run("bench", "--suite", "lemmas", "--seed", "1", "--out", str(out)) == 0
    res = json.loads(out.read_text(encoding="utf-8"))["results"]
    assert res["neighborhood_524"]["worst_margin"] > 0
    assert res["noncrossing_519"]["worst_margin"] > 0


def test_solver_outputs_are_byte_deterministic(tmp_path):
    pts = tmp_path / "p.pts"
    assert run("gen", "--kind", "uniform_disk", "--n", "7", "--seed", "21",
               "--out", str(pts)) == 0
    trees, reports = [], []
    for tag in ("1", "2"):
        tree = tmp_path / f"t{tag}.json"
        report = tmp_path / f"r{tag}.json"
        assert run("ncst", "--points", str(pts), "--out", str(tree),
                   "--report", str(report)) == 0
        trees.append(tree.read_bytes())
        reports.append(report.read_bytes())
    assert trees[0] == trees[1]
    assert reports[0] == reports[1]


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "longspan.cli", "gen", "--kind", "two_cluster",
         "--n", "4", "--seed", "1", "--epsilon", "0.001",
         "--out", str(tmp_path / "p.pts")],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
