import math

import numpy as np
import pytest

from logicrl import constraints as fl
from logicrl.envs import CartPole, GridWorld, StateSchema
from oracles import (
    QUANTIFIED_SCHEMA,
    norm_distance,
    oracle_evaluate_batch,
    quantified_registry,
    random_formula,
    random_quantified_formula,
)

GRID_SCHEMA = GridWorld().schema
CARTPOLE_SCHEMA = CartPole().schema


def registry_with(**sets) -> fl.ObjectRegistry:
    reg = fl.ObjectRegistry()
    for name, points in sets.items():
        reg.add_set(name, np.asarray(points, dtype=float))
    return reg


def holds(bound: fl.BoundFormula, state) -> bool:
    """Whether `bound` holds at one state, scored as a one-row batch."""
    return bool(bound.evaluate_batch(np.array([state], dtype=float))[0])


# -- parsing ------------------------------------------------------------------


def test_parse_simple_norm_atom():
    f = fl.parse("0 <= norm2(s - [5,5])")
    assert isinstance(f, fl.Atom)
    assert f.cmp.op == "<="
    assert f.cmp.lhs == fl.Literal(0.0)
    norm = f.cmp.rhs
    assert isinstance(norm, fl.NormDistance) and norm.p == 2.0
    assert norm.left == fl.StateRef(None)
    assert norm.right == fl.PointLiteral((5.0, 5.0))


def test_parse_forall():
    f = fl.parse("forall u in unsafe: 1.5 <= norm2(s - u)")
    assert isinstance(f, fl.ForAll)
    assert f.var == "u" and f.set_name == "unsafe"
    assert isinstance(f.body, fl.Atom)
    assert f.body.cmp.rhs == fl.NormDistance(2.0, fl.StateRef(None), fl.VarRef("u"))


def test_parse_cartpole_conjunction():
    f = fl.parse(
        "(-2.4 <= s[0] and s[0] <= 2.4) and (-0.2095 <= s[2] and s[2] <= 0.2095)"
    )
    assert isinstance(f, fl.And) and len(f.children) == 2
    atoms = []
    for side in f.children:
        assert isinstance(side, fl.And) and len(side.children) == 2
        atoms.extend(side.children)
    comps = {e.index for a in atoms for e in (a.cmp.lhs, a.cmp.rhs) if isinstance(e, fl.Component)}
    assert comps == {0, 2}
    assert atoms[0].cmp.lhs == fl.Literal(-2.4)


def test_parse_exists_is_not_forall_not():
    f = fl.parse("exists u in unsafe: norm2(s - u) <= 1")
    assert isinstance(f, fl.Not)
    assert isinstance(f.child, fl.ForAll)
    assert isinstance(f.child.body, fl.Not)


def test_parse_comments_and_whitespace():
    src = "# a comment\nforall u in unsafe:  # trailing\n    1 <= norm1(s - u)\n"
    f = fl.parse(src)
    assert isinstance(f, fl.ForAll)


def test_parse_precedence_or_of_ands():
    f = fl.parse("s[0] <= 1 and s[1] <= 2 or s[0] >= 3")
    assert isinstance(f, fl.Or)
    assert isinstance(f.children[0], fl.And)
    assert isinstance(f.children[1], fl.Atom)


@pytest.mark.parametrize(
    "source",
    ["", "1 <=", "norm2(s -)", "forall in unsafe: 1 <= s[0]", "s[1.5] <= 2",
     "1 ** 2", "(1 <= s[0]", "norm3(s - [1,2]) <= 1 <= 2"],
)
def test_parse_errors_carry_position(source):
    with pytest.raises(fl.FLSyntaxError) as exc:
        fl.parse(source)
    assert exc.value.line >= 1 and exc.value.col >= 1
    assert "line" in str(exc.value)


@pytest.mark.parametrize("source, line, col", [
    ("s[0] <= \u00b2", 1, 9),          # superscript two
    ("s[\u00b2] <= 1", 1, 3),
    ("s[\u0663] <= 1", 1, 3),          # Arabic-Indic three, once read as s[3]
    ("s[0] <= 1\u0663", 1, 10),
    ("# note\n  1.5 <= \u00b3", 2, 10),
], ids=["superscript-literal", "superscript-index", "arabic-index", "arabic-suffix",
        "second-line"])
def test_only_ascii_digits_make_numbers(source, line, col):
    with pytest.raises(fl.FLSyntaxError) as exc:
        fl.parse(source)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("source, line, col", [
    ("s[0] <= 1e999", 1, 9),
    ("s[0] >= -1e999", 1, 10),
    ("forall u in unsafe:\n  norm2(s - [0, 2e308]) >= 1", 2, 17),
], ids=["literal", "negated-literal", "point-literal"])
def test_overflowing_number_is_a_syntax_error_at_its_token(source, line, col):
    """A number float() reads as inf is refused where it stands: to_text
    would write it as `inf`, which parse does not read back."""
    with pytest.raises(fl.FLSyntaxError, match="too large for a float") as exc:
        fl.parse(source)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_largest_float_round_trips():
    for source in ("s[0] <= 1.7976931348623157e308", "norm2(s - [-1.7976931348623157e308, 0]) <= 1"):
        f = fl.parse(source)
        assert fl.parse(fl.to_text(f)) == f
    assert fl.parse("s[0] <= 1.7976931348623157e308").cmp.rhs.value == np.finfo(np.float64).max


def test_end_of_input_after_a_comment_sits_past_the_last_character():
    """The end-of-input position is one past the last character, also when
    the input ends in a comment."""
    with pytest.raises(fl.FLSyntaxError) as exc:
        fl.parse("1 <= # no right side")
    assert (exc.value.line, exc.value.col) == (1, 21)
    with pytest.raises(fl.FLSyntaxError) as exc:
        fl.parse("1 <=\n  # no right side\n")
    assert (exc.value.line, exc.value.col) == (3, 1)


def test_load_constraint_file(tmp_path):
    path = tmp_path / "keepout.fl"
    path.write_text("# keep away\nforall u in unsafe: 1.5 <= norm2(s - u)\n")
    f = fl.load_constraint_file(path)
    assert isinstance(f, fl.ForAll)


# -- binding ------------------------------------------------------------------


def test_bind_unknown_set_names_it():
    f = fl.parse("forall u in unsafe: 1 <= norm2(s - u)")
    with pytest.raises(fl.BindError, match="unsafe"):
        fl.bind(f, fl.ObjectRegistry(), GRID_SCHEMA)


def test_bind_empty_set_is_vacuous_true():
    f = fl.parse("forall h in hazards: 1 <= norm2(s - h)")
    for empty in ([], np.zeros((0, 2)), np.zeros((0, 0))):
        reg = fl.ObjectRegistry()
        reg.add_set("hazards", empty)
        bound = fl.bind(f, reg, GRID_SCHEMA)
        assert holds(bound, [3.0, 4.0])
    # a nested quantifier over a non-empty set, whose body fails at s == u
    reg.add_set("pts", np.array([[3.0, 4.0]]))
    f = fl.parse("forall h in hazards: forall u in pts: (1 <= norm2(h - u) and 1 <= norm2(s - u))")
    bound = fl.bind(f, reg, GRID_SCHEMA)
    assert holds(bound, [3.0, 4.0]) and holds(bound, [0.0, 0.0])


@pytest.mark.parametrize("body, message", [
    ("forall u in nowhere: 1 <= norm2(s - u)", "unknown object set 'nowhere'"),
    ("1 <= norm2(s.vel - h)", "unknown state slice 'vel'; schema has ['pos']"),
    ("s[9] <= 1", "component s[9] out of range for schema of size 2"),
    ("1 <= norm2(s - q)", "unknown identifier 'q' (not bound by any quantifier)"),
    ("1 <= norm2(s - [1,2,3])", "norm operands have different dimensions (2 vs 3); "
                                "use a state slice (s.<name>) to select matching components"),
], ids=["unknown_set", "unknown_slice", "component", "unbound", "dimensions"])
def test_bind_checks_a_body_over_an_empty_set(body, message):
    """A quantifier over an empty set holds without scoring its body, but the
    body is still checked: a bad one raises the BindError it would raise
    over a non-empty set."""
    reg = fl.ObjectRegistry()
    reg.add_set("hazards", np.zeros((0, 0)))
    with pytest.raises(fl.BindError) as err:
        fl.bind(fl.parse(f"forall h in hazards: {body}"), reg, GRID_SCHEMA)
    assert str(err.value) == message


@pytest.mark.parametrize("points", [[[], []], np.zeros((3, 0))], ids=["lists", "array"])
def test_registry_refuses_points_of_width_zero(points):
    """Points of width 0 would be stored as the empty set, and a quantifier
    over them would hold vacuously without a width check (the empty set
    itself stays legal: test_bind_empty_set_is_vacuous_true)."""
    with pytest.raises(ValueError, match=f"{len(points)} anchor points of width 0"):
        fl.ObjectRegistry().add_set("w", points)


def test_bind_component_out_of_range():
    with pytest.raises(fl.BindError, match=r"s\[7\]"):
        fl.bind(fl.parse("s[7] <= 1"), fl.ObjectRegistry(), GRID_SCHEMA)


def test_bind_dimension_mismatch():
    # 2-D anchor against the 4-D cart-pole state
    f = fl.parse("forall u in pts: 1 <= norm2(s - u)")
    reg = registry_with(pts=[[1.0, 2.0]])
    with pytest.raises(fl.BindError, match="dimension"):
        fl.bind(f, reg, CARTPOLE_SCHEMA)


def test_bind_unknown_slice_and_unknown_var():
    with pytest.raises(fl.BindError, match="slice"):
        fl.bind(fl.parse("norm2(s.vel - [1,2]) <= 1"), fl.ObjectRegistry(), GRID_SCHEMA)
    with pytest.raises(fl.BindError, match="identifier"):
        fl.bind(fl.parse("norm2(s - q) <= 1"), fl.ObjectRegistry(), GRID_SCHEMA)


@pytest.mark.parametrize("source", [
    "forall s in unsafe: 1.5 <= norm2(s - [0,0])",
    "exists s in unsafe: s[0] <= 1",
    "forall s in nowhere: 1 <= s[0]",
    "forall u in unsafe: forall s in unsafe: 1 <= norm2(u - s)",
], ids=["forall", "exists", "unknown_set", "nested"])
def test_bind_rejects_a_quantifier_variable_named_s(source):
    """`s` in a norm operand always reads the state, so a variable named `s`
    would never be read; bind refuses it before looking up the set."""
    reg = registry_with(unsafe=[[0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(fl.BindError) as err:
        fl.bind(fl.parse(source), reg, GRID_SCHEMA)
    assert str(err.value) == "quantifier variable 's' would be read as the state; rename it"


def test_bind_named_slice():
    f = fl.parse("norm2(s.pos - [1,2]) <= 3")
    bound = fl.bind(f, fl.ObjectRegistry(), GRID_SCHEMA)
    assert holds(bound, [1.0, 2.0])
    assert not holds(bound, [10.0, 2.0])


# -- evaluation ---------------------------------------------------------------


def test_evaluate_distance_bound_false_case():
    bound = fl.bind(fl.parse("2 <= norm2(s - [5,6])"), fl.ObjectRegistry(), GRID_SCHEMA)
    assert not holds(bound, [5.0, 5.0])  # distance is 1


def test_evaluate_tautology_nonnegative_norm():
    f = fl.parse("forall u in unsafe: 0 <= norm2(s - u)")
    reg = registry_with(unsafe=[[3, 3], [17, 2], [9, 9]])
    bound = fl.bind(f, reg, GRID_SCHEMA)
    rng = np.random.default_rng(0)
    states = rng.uniform(0, 19, size=(50, 2))
    assert bound.evaluate_batch(states).all()


def test_evaluate_forall_l1_two_anchors():
    f = fl.parse("forall u in unsafe: 1 <= norm1(s - u)")
    reg = registry_with(unsafe=[[3, 3], [4, 3]])
    bound = fl.bind(f, reg, GRID_SCHEMA)
    assert holds(bound, [3.0, 4.0])  # distance to (3,3) is exactly 1
    assert not holds(bound, [3.0, 3.0])  # on an anchor


def test_evaluate_rejects_nonfinite_state():
    bound = fl.bind(fl.parse("0 <= s[0]"), fl.ObjectRegistry(), GRID_SCHEMA)
    with pytest.raises(ValueError):
        bound.evaluate([np.nan, 1.0])
    with pytest.raises(ValueError):
        bound.evaluate_batch([[np.inf, 0.0]])


def test_evaluate_strict_versus_nonstrict():
    reg = fl.ObjectRegistry()
    assert holds(fl.bind(fl.parse("1 <= s[0]"), reg, GRID_SCHEMA), [1.0, 0.0])
    assert not holds(fl.bind(fl.parse("1 < s[0]"), reg, GRID_SCHEMA), [1.0, 0.0])
    assert holds(fl.bind(fl.parse("1 >= s[0]"), reg, GRID_SCHEMA), [1.0, 0.0])
    assert not holds(fl.bind(fl.parse("1 > s[0]"), reg, GRID_SCHEMA), [1.0, 0.0])


def test_exists_semantics():
    f = fl.parse("exists u in pts: norm2(s - u) <= 1")
    reg = registry_with(pts=[[0, 0], [10, 10]])
    bound = fl.bind(f, reg, GRID_SCHEMA)
    assert holds(bound, [0.5, 0.0])
    assert not holds(bound, [5.0, 5.0])


# -- norms --------------------------------------------------------------------


_NORM_KEYWORDS = {1.0: "norm1", 2.0: "norm2", math.inf: "norminf"}


def formula_distance_is(state, anchor, p: float, distance: float) -> bool:
    """Whether the bound formula puts `state` at exactly `distance` from
    `anchor` under the p-norm: `<=` holds and `<` does not."""
    norm = f"{_NORM_KEYWORDS[p]}(s - {list(map(float, anchor))})"
    at_most = fl.bind(fl.parse(f"{norm} <= {distance!r}"), fl.ObjectRegistry(), GRID_SCHEMA)
    below = fl.bind(fl.parse(f"{norm} < {distance!r}"), fl.ObjectRegistry(), GRID_SCHEMA)
    return holds(at_most, state) and not holds(below, state)


def test_norm_distance_hand_values():
    for state, p, distance in (([3, 4], 2.0, 5.0), ([1, -2], 1.0, 3.0), ([1, -2], math.inf, 2.0)):
        assert norm_distance(state, [0, 0], p) == distance
        assert formula_distance_is(state, [0, 0], p, distance)


def test_norm_distance_identity_and_errors():
    x = np.array([0.3, -1.7])
    for p in (1.0, 2.0, math.inf):
        assert norm_distance(x, x, p) == 0.0
        assert formula_distance_is(x, x, p, 0.0)
    with pytest.raises(fl.BindError):
        fl.bind(fl.parse("norm2(s - [1, 2, 3]) <= 1"), fl.ObjectRegistry(), GRID_SCHEMA)
    with pytest.raises(fl.FLSyntaxError):
        fl.parse("norm3(s - [0, 0]) <= 1")
    with pytest.raises(ValueError, match="at least 1 value"):
        fl.PointLiteral(())  # a zero-width norm operand


def compiled_norm(expr: fl.NormDistance, schema, states) -> np.ndarray:
    """The values bind compiles for one norm: the per-row values of a norm
    that reads the state, the folded (1,) constant of one that does not."""
    bound = fl.bind(fl.Atom(fl.Comparison(expr, "<=", fl.Literal(0.0))), fl.ObjectRegistry(), schema)
    const, fn = bound._compile_scalar(expr, ())
    return const if fn is None else fn(states)


@pytest.mark.parametrize("width", range(1, 13))
def test_norm_of_every_pairing_matches_numpy(width):
    """State against constant, constant against state, state against state
    and constant against constant (folded at bind time) all take the one
    running norm. Up to 7 components it equals np.linalg.norm bit for bit;
    from 8 on numpy sums pairwise, so the two agree to rounding only."""
    rng = np.random.default_rng(width)
    # `a` reads the first `width` components, `b` the last `width` in reverse
    schema = StateSchema(tuple(f"x{i}" for i in range(2 * width)),
                         {"a": tuple(range(width)), "b": tuple(range(2 * width - 1, width - 1, -1))})
    states = rng.uniform(-5.0, 5.0, size=(50, 2 * width))
    x, y = rng.uniform(-5.0, 5.0, size=(2, width))
    a, b = states[:, :width], states[:, :width - 1:-1]
    point, other = fl.PointLiteral(tuple(x)), fl.PointLiteral(tuple(y))
    pairings = [
        (fl.StateRef("a"), point, a - x),
        (point, fl.StateRef("a"), x - a),
        (fl.StateRef("a"), fl.StateRef("b"), a - b),
        (point, other, (x - y)[None, :]),
    ]
    for p in (1.0, 2.0, math.inf):
        for left, right, diff in pairings:
            mine = compiled_norm(fl.NormDistance(p, left, right), schema, states)
            expected = np.linalg.norm(diff, ord=p, axis=1)
            assert mine.shape == expected.shape
            if width <= 7:
                assert np.array_equal(mine, expected), (p, left, right)
            else:
                np.testing.assert_allclose(mine, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("p", [3.0, 0.5, 0.0, math.nan])
def test_bind_rejects_norm_orders_the_grammar_cannot_write(p):
    """The grammar writes p in {1, 2, inf} only; a hand-built NormDistance
    with another order is refused at bind time, not evaluated."""
    norm = fl.NormDistance(p, fl.StateRef(None), fl.PointLiteral((0.0, 0.0)))
    with pytest.raises(fl.BindError, match="norm order"):
        fl.bind(fl.Atom(fl.Comparison(norm, "<=", fl.Literal(1.0))),
                fl.ObjectRegistry(), GRID_SCHEMA)


# -- rendering ----------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "0 <= norm2(s - [5,5])",
        "forall u in unsafe: 1.5 <= norm2(s - u)",
        "(-2.4 <= s[0] and s[0] <= 2.4) and (-0.2095 <= s[2] and s[2] <= 0.2095)",
        "not (s[0] <= 1 or s[1] >= 2) and norminf(s - [1,-2]) > 0.5",
        "exists u in unsafe: norm1(s - u) < 2",
        "forall u in unsafe: (0 <= s[0] and norm2(s.pos - u) >= 1)",
    ],
)
def test_to_text_round_trip(source):
    f = fl.parse(source)
    assert fl.parse(fl.to_text(f)) == f


def test_to_text_preserves_and_order():
    f = fl.parse("s[1] <= 2 and s[0] <= 1")
    text = fl.to_text(f)
    assert text.index("s[1]") < text.index("s[0]")


def test_to_text_parenthesizes_or_inside_and():
    f = fl.And((fl.Or((fl.parse("s[0] <= 1"), fl.parse("s[0] >= 3"))), fl.parse("s[1] <= 2")))
    text = fl.to_text(f)
    assert text.startswith("(")
    assert fl.parse(text) == f


def test_random_formulas_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = random_formula(rng)
        assert fl.parse(fl.to_text(f)) == f


# -- properties ---------------------------------------------------------------


def test_brute_force_equivalence_sample():
    """evaluate agrees with the independent truth-table oracle (small scale;
    the acceptance suite runs the full 1000x1000 version)."""
    rng = np.random.default_rng(123)
    states = rng.uniform(-2.0, 12.0, size=(200, 2))
    reg = fl.ObjectRegistry()
    for _ in range(200):
        f = random_formula(rng)
        mine = fl.bind(f, reg, GRID_SCHEMA).evaluate_batch(states)
        oracle = oracle_evaluate_batch(f, states)
        assert np.array_equal(mine, oracle)


def test_quantified_formulas_match_oracle():
    """Quantifiers over every set (the empty one too), nested with and/or/
    not, agree with the oracle's anchor-by-anchor loop."""
    rng = np.random.default_rng(321)
    reg = quantified_registry(rng)
    states = rng.uniform(-2.0, 12.0, size=(150, 3))
    mixed = 0
    for _ in range(300):
        f = random_quantified_formula(rng)
        mine = fl.bind(f, reg, QUANTIFIED_SCHEMA).evaluate_batch(states)
        oracle = oracle_evaluate_batch(f, states, reg, QUANTIFIED_SCHEMA.slices)
        assert mine.shape == (150,) and mine.dtype == bool
        assert np.array_equal(mine, oracle), fl.to_text(f)
        mixed += 0 < mine.sum() < len(mine)
    assert mixed >= 100  # most formulas split the states, so the check has teeth


@pytest.mark.parametrize(
    "source",
    [
        "-2.4 <= s[0] and s[0] <= 2.4 and -0.2095 <= s[2] and s[2] <= 0.2095",
        "-2.4 < s[0] and s[0] < 2.4 and 0.2095 >= s[2] and s[2] >= -0.2095",
        "(s[0] > -2.4 and (2.4 >= s[0] and s[1] >= 1)) and not s[3] < 0",
        "s[0] <= 2.4 and 1 < s[1] or -0.2095 > s[2] and s[3] >= 0",
    ],
)
def test_component_bounds_match_oracle_at_the_bounds(source):
    """Conjunctions and disjunctions of `s[i] <op> literal` atoms, with the
    literal on either side, strict and not, on states exactly at each bound
    and one ulp either side of it."""
    edges = {0: 2.4, 1: 1.0, 2: 0.2095, 3: 0.0}
    values = []
    for i, edge in edges.items():
        near = [edge, -edge, np.nextafter(edge, 9), np.nextafter(edge, -9),
                np.nextafter(-edge, 9), np.nextafter(-edge, -9), 0.0, 3.0, -3.0]
        values.append(near)
    grid = np.array(np.meshgrid(*values)).reshape(4, -1).T
    f = fl.parse(source)
    mine = fl.bind(f, fl.ObjectRegistry(), CARTPOLE_SCHEMA).evaluate_batch(grid)
    assert np.array_equal(mine, oracle_evaluate_batch(f, grid))
    assert 0 < mine.sum() < len(grid)


def test_component_bounds_strictness():
    """`<=` admits a state on its bound and `<` does not."""
    reg = fl.ObjectRegistry()
    loose = fl.bind(fl.parse("-2.4 <= s[0] and s[0] <= 2.4"), reg, CARTPOLE_SCHEMA)
    strict = fl.bind(fl.parse("-2.4 < s[0] and s[0] < 2.4"), reg, CARTPOLE_SCHEMA)
    at_bounds = np.array([[-2.4, 0, 0, 0], [2.4, 0, 0, 0], [0, 0, 0, 0]])
    assert loose.evaluate_batch(at_bounds).tolist() == [True, True, True]
    assert strict.evaluate_batch(at_bounds).tolist() == [False, False, True]


@pytest.mark.parametrize("width", range(1, 13))
def test_quantified_norm_bounds_match_oracle_at_the_boundary(width):
    """`forall`/`exists` over a `c <op> norm(s.pos - u)` body (literal on
    either side, state on either side of the norm, every operator, p in
    {1, 2, inf}) on states exactly at distance c from an anchor and one ulp
    either side, for slices of 1 to 12 components."""
    # `pos` reads the last `width` components in reverse; s[0] is unread
    schema = StateSchema(tuple(f"x{i}" for i in range(width + 1)),
                         {"pos": tuple(range(width, 0, -1))})
    anchors = np.array([np.zeros(width), np.full(width, 4.0), np.resize([-3.0, 2.0], width)])
    reg = registry_with(pts=anchors)
    c = 1.5
    rows = []
    for a in anchors:
        for k in range(width):
            for edge in (a[k] + c, a[k] - c):
                for v in (edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)):
                    rows.append(np.concatenate([a[:k], [v], a[k + 1:]]))
    states = np.full((len(rows), width + 1), 7.0)
    states[:, width:0:-1] = rows
    mixed = 0
    for quantifier in ("forall", "exists"):
        for op in fl.CMP_OPS:
            for norm in ("norm1", "norm2", "norminf"):
                for body in (f"{c} {op} {norm}(s.pos - u)", f"{norm}(u - s.pos) {op} {c}"):
                    f = fl.parse(f"{quantifier} u in pts: {body}")
                    mine = fl.bind(f, reg, schema).evaluate_batch(states)
                    oracle = oracle_evaluate_batch(f, states, reg, schema.slices)
                    assert np.array_equal(mine, oracle), fl.to_text(f)
                    mixed += 0 < mine.sum() < len(states)
    # a lower bound under forall and an upper bound under exists split the
    # states at the boundary; no state is near every anchor at once
    assert mixed == 24


@pytest.mark.parametrize("n_anchors", [1, 2, 3, 5, 8])
def test_forall_equals_explicit_conjunction(n_anchors):
    rng = np.random.default_rng(n_anchors)
    anchors = rng.uniform(0, 10, size=(n_anchors, 2))
    f = fl.parse("forall u in pts: 1.2 <= norm2(s - u)")
    reg = registry_with(pts=anchors)
    bound = fl.bind(f, reg, GRID_SCHEMA)
    substituted = [
        fl.Atom(fl.Comparison(fl.Literal(1.2), "<=",
                              fl.NormDistance(2.0, fl.StateRef(None),
                                              fl.PointLiteral(tuple(a)))))
        for a in anchors
    ]
    expanded = fl.And(tuple(substituted)) if len(substituted) > 1 else substituted[0]
    bound2 = fl.bind(expanded, reg, GRID_SCHEMA)
    states = rng.uniform(-1, 11, size=(128, 2))
    assert np.array_equal(bound.evaluate_batch(states), bound2.evaluate_batch(states))


def test_safety_atom_monotone_in_distance():
    """If lb <= |s - u| holds at s, it holds at any state farther from u."""
    rng = np.random.default_rng(5)
    u = np.array([4.0, 7.0])
    bound = fl.bind(fl.parse("1.5 <= norm2(s - [4,7])"), fl.ObjectRegistry(), GRID_SCHEMA)
    for _ in range(200):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        r = rng.uniform(0, 6)
        s = u + r * direction
        if holds(bound, s):
            farther = u + (r + rng.uniform(0, 5)) * direction
            assert holds(bound, farther)


def test_parser_total_on_generated_and_mutated_text():
    """Generated formulas always parse; mutations parse or raise a positioned
    syntax error, never anything else."""
    rng = np.random.default_rng(99)
    alphabet = list("abs0123456789 ()[]<>=.,-:orandnotfrll#\n")
    for _ in range(150):
        text = fl.to_text(random_formula(rng))
        assert fl.parse(text) is not None
        mutated = list(text)
        for _ in range(rng.integers(1, 4)):
            op = rng.integers(3)
            pos = int(rng.integers(len(mutated))) if mutated else 0
            if op == 0 and mutated:
                mutated[pos] = str(rng.choice(alphabet))
            elif op == 1 and mutated:
                del mutated[pos]
            else:
                mutated.insert(pos, str(rng.choice(alphabet)))
        try:
            fl.parse("".join(mutated))
        except fl.FLSyntaxError as exc:
            assert exc.line >= 1 and exc.col >= 1


def test_registry_validation():
    reg = fl.ObjectRegistry()
    reg.add_set("a", [[1, 2]])
    with pytest.raises(ValueError):
        reg.add_set("a", [[3, 4]])
    with pytest.raises(ValueError):
        reg.add_set("b", [[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        reg.add_set("c", [[np.nan, 1]])
