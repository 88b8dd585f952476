import json
import math

import pytest

from longspan.geometry import dist
from longspan.instances import (
    GenSpec,
    SplitMix64,
    format_neighborhoods,
    format_points,
    format_tree,
    generate,
    parse_neighborhoods,
    parse_points,
    parse_tree,
    read_points,
    write_points,
)
from longspan.neighborhoods import NeighborhoodSet
from longspan.report import SolveReport
from longspan.trees import Tree


def test_splitmix64_reference_stream():
    # published SplitMix64 test vector for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_doubles_in_unit_interval():
    rng = SplitMix64(99)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_generate_is_deterministic_to_the_byte():
    for spec in (
        GenSpec(kind="uniform_square", n=9, seed=123),
        GenSpec(kind="uniform_disk", n=9, seed=123),
        GenSpec(kind="two_cluster", n=8, seed=4, epsilon=1e-4),
    ):
        a = format_points(generate(spec))
        b = format_points(generate(spec))
        assert a == b
    spec = GenSpec(kind="random_neighborhoods", n=4, seed=7, vertices_per_nb=4)
    assert format_neighborhoods(generate(spec)) == format_neighborhoods(generate(spec))


def test_uniform_kinds_stay_in_domain():
    pts = generate(GenSpec(kind="uniform_square", n=50, seed=1))
    assert all(0 <= p.x < 1 and 0 <= p.y < 1 for p in pts)
    pts = generate(GenSpec(kind="uniform_disk", n=50, seed=1))
    assert all(p.x * p.x + p.y * p.y <= 1.0 for p in pts)


def test_two_cluster_structure():
    pts = generate(GenSpec(kind="two_cluster", n=4, seed=3, epsilon=1e-6))
    assert len(pts) == 4
    assert sum(1 for p in pts if dist(p, (0, 0)) <= 1e-6) == 2
    assert sum(1 for p in pts if dist(p, (1, 0)) <= 1e-6) == 2


def test_diam_counterexample_structure():
    nbs = generate(GenSpec(kind="diam_counterexample", n=4, seed=0, epsilon=0.25))
    assert isinstance(nbs, NeighborhoodSet)
    assert nbs.n == 4
    first = nbs.neighborhoods[0]
    assert [tuple(v) for v in first.vertices()] == [(0.0, 0.0), (2.5, 0.0)]
    assert [tuple(v) for v in nbs.neighborhoods[1].vertices()] == [(2.0, 0.0)]
    for nb in nbs.neighborhoods[2:]:
        (v,) = list(nb.vertices())
        assert dist(v, (1.0, 0.0)) <= 0.25


def test_diam_counterexample_forced_edge_is_poor():
    # any tree through the bichromatic diameter loses the far vertex of the
    # first neighborhood, capping its length at 2 + (1 + eps)(n - 2)
    from longspan.geometry import bichromatic_diametral_pair
    from longspan.oracles import exact_stnb
    from longspan.trees import max_spanning_tree_through, tree_length

    from helpers import all_labeled_trees, edge_length_sum

    n, eps = 7, 1.0 / 7
    nbs = generate(GenSpec(kind="diam_counterexample", n=n, seed=2, epsilon=eps))

    # (p0, p2) is the unique bichromatic diametral pair
    assert bichromatic_diametral_pair(nbs.points, nbs.colors) == (0, 2)
    second = max(
        dist(nbs.points[i], nbs.points[j])
        for i in range(len(nbs.points))
        for j in range(i + 1, len(nbs.points))
        if nbs.colors[i] != nbs.colors[j] and (i, j) != (0, 2)
    )
    assert second < 2.0

    rep_pts = [nbs.points[0], nbs.points[2], *nbs.points[3:]]
    forced = max_spanning_tree_through(rep_pts, 0, 1)
    forced_len = tree_length(forced, rep_pts)
    cap = 2 + (1 + eps) * (n - 2)
    assert forced_len <= cap + 1e-9
    # exhaustive check: no labeled tree through that edge beats the cap, and
    # the forced Prim tree is the best of them
    best = max(
        edge_length_sum(e, rep_pts)
        for e in all_labeled_trees(n)
        if (0, 1) in e
    )
    assert best <= cap + 1e-9
    assert forced_len == pytest.approx(best, abs=1e-9)
    assert exact_stnb(nbs).length >= (1 - 2 * eps) + (2 - 3 * eps) * (n - 2) - 1e-9


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate(GenSpec(kind="hexagon", n=4, seed=0))
    with pytest.raises(ValueError, match="n must be"):
        generate(GenSpec(kind="uniform_square", n=1, seed=0))
    with pytest.raises(ValueError, match="epsilon"):
        generate(GenSpec(kind="two_cluster", n=4, seed=0, epsilon=0.7))
    with pytest.raises(ValueError, match="epsilon not used"):
        generate(GenSpec(kind="uniform_square", n=4, seed=0, epsilon=0.1))
    with pytest.raises(ValueError, match="vertices_per_nb"):
        generate(GenSpec(kind="uniform_square", n=4, seed=0, vertices_per_nb=3))
    with pytest.raises(ValueError, match="vertices_per_nb must be positive"):
        generate(GenSpec(kind="random_neighborhoods", n=4, seed=0, vertices_per_nb=0))


def test_point_file_roundtrip_is_bit_exact(tmp_path):
    pts = generate(GenSpec(kind="uniform_square", n=100, seed=77))
    path = tmp_path / "points.txt"
    write_points(path, pts)
    back = read_points(path)
    assert [(p.x, p.y) for p in back] == [(p.x, p.y) for p in pts]
    # including awkward magnitudes
    ugly = [(1e-300, 0.1 + 0.2), (math.pi, -2.5e17)]
    assert [tuple(p) for p in parse_points(format_points(ugly))] == ugly


def test_point_file_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_points("0 0\n1\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_points("0 0\n1 1\nx y\n")
    with pytest.raises(ValueError, match="non-finite"):
        parse_points("nan 0\n")


def test_points_file_allows_comments_and_blanks():
    pts = parse_points("# header\n\n0 0  # origin\n1.5 2.5\n")
    assert [tuple(p) for p in pts] == [(0.0, 0.0), (1.5, 2.5)]


def test_neighborhood_file_roundtrip():
    nbs = generate(GenSpec(kind="random_neighborhoods", n=3, seed=5, vertices_per_nb=2))
    text = format_neighborhoods(nbs)
    back = parse_neighborhoods(text)
    assert format_neighborhoods(back) == text
    assert back.n == 3
    assert [tuple(p) for p in back.points] == [tuple(p) for p in nbs.points]


def test_neighborhood_file_errors():
    with pytest.raises(ValueError, match="duplicate color"):
        parse_neighborhoods(
            "nbs 2\nnb 1 1\npoly 1\n0 0\nnb 1 1\npoly 1\n1 0\n"
        )
    with pytest.raises(ValueError, match="line 1"):
        parse_neighborhoods("nbs x\n")
    with pytest.raises(ValueError, match="expected 'poly'"):
        parse_neighborhoods("nbs 2\nnb 1 1\n0 0\nnb 2 1\npoly 1\n1 0\n")
    # superscript counts: str.isdigit accepts them, int() does not
    with pytest.raises(ValueError, match="line 1: malformed header"):
        parse_neighborhoods("nbs \u00b2\n")
    with pytest.raises(ValueError, match="line 3: malformed polygon header"):
        parse_neighborhoods("nbs 2\nnb 1 1\npoly \u00b3\n0 0\n")
    two = "nbs 2\nnb 1 1\npoly 1\n0 0\nnb 2 1\npoly 1\n1 0\n"
    for text, message in [
        ("nbs 2\nnb 1\npoly 1\n0 0\n", "line 2: malformed neighborhood header"),
        ("nbs 2\nnb x 1\npoly 1\n0 0\n", "line 2: malformed neighborhood header"),
        ("nbs 2\nnb 1 0\n", "line 2: neighborhood needs a polygon"),
        ("nbs 2\nnb 1 1\npoly 2\n0 0\n", "line 3: unexpected end of file"),  # in a ring
        ("nbs 2\nnb 1 1\npoly 1\n0 0\n", "line 4: unexpected end of file"),  # at a header
        ("", "line 1: unexpected end of file"),
        ("nbs 2\nnb 1 1\npoly 1\n0 0 0\n", "line 4: expected 'x y', got '0 0 0'"),
        (two + "5 5\n", "line 8: trailing content"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_neighborhoods(text)
    assert parse_neighborhoods(two).n == 2


def test_tree_file_roundtrip_and_errors():
    pts = (( 0.25, 0.75), (1.0, 0.125))
    rep = SolveReport(
        algorithm="ncst",
        candidate="star",
        points=tuple(pts),
        tree=Tree(2, ((0, 1),)),
        length=dist(pts[0], pts[1]),
        guess=None,
        metrics={"center": 0},
    )
    text = format_tree(rep)
    back = parse_tree(text)
    assert back.algorithm == "ncst"
    assert back.tree.edges == ((0, 1),)
    assert [tuple(p) for p in back.points] == [tuple(p) for p in pts]
    assert format_tree(back) == text  # byte-stable round trip

    with pytest.raises(ValueError, match="edge out of range"):
        parse_tree(text.replace("[[0, 1]]", "[[0, 5]]").replace('"edges": [[0, 1]]', '"edges": [[0, 5]]'))
    with pytest.raises(ValueError, match="format"):
        parse_tree('{"format": 2}')
    with pytest.raises(ValueError, match="malformed tree file"):
        parse_tree("not json")

    payload = json.loads(text)
    assert parse_tree(json.dumps(dict(payload, guess=[1, 0]))).guess == (1, 0)
    malformed = [{k: v for k, v in payload.items() if k != key}
                 for key in ("points", "edges", "length")]
    malformed += [dict(payload, edges=e) for e in ([[0]], [0], [[0, 1.0]], [[0, "1"]])]
    malformed += [dict(payload, guess=g) for g in (0, [0], [0, 1, 1], "01")]
    for bad in malformed:
        with pytest.raises(ValueError, match="malformed tree file"):
            parse_tree(json.dumps(bad))


@pytest.mark.parametrize("field, value", [
    ("points", [[None, 0], [1, 0]]),
    ("points", [5, [1, 0]]),
    ("points", [[0, "1"], [1, 0]]),
    ("points", [[True, 0], [1, 0]]),
    ("points", [[10**400, 0], [1, 0]]),
    ("points", 5),
    ("edges", 5),
    ("length", None),
    ("length", "1.0"),
    ("length", [1.0]),
    ("metrics", 5),
    ("metrics", [1]),
])
def test_parse_tree_rejects_malformed_values(field, value):
    payload = {"format": 1, "points": [[0, 0], [1, 0]], "edges": [[0, 1]], "length": 1.0}
    with pytest.raises(ValueError, match="malformed tree file"):
        parse_tree(json.dumps(dict(payload, **{field: value})))


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_parse_tree_rejects_non_finite_numbers(text):
    for body in (f'"points": [[{text}, 0]], "edges": [], "length": 0',
                 f'"points": [[0, 0]], "edges": [], "length": {text}'):
        with pytest.raises(ValueError, match="malformed tree file"):
            parse_tree('{"format": 1, ' + body + "}")
