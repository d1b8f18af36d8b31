import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzznorm.checker import check_axioms
from fuzznorm.connectives import (A_MIN, BUILTIN_TCONORMS, BUILTIN_TNORMS,
                                  Connective, Role, S_D, S_L, S_M, S_P, T_D,
                                  T_L, T_M, T_P, construct_nullnorm,
                                  construct_uninorm_max, construct_uninorm_min,
                                  dualize, parse_operator, power_iterate)
from fuzznorm.errors import (DegenerateParameterError, DomainError,
                             UnknownOperatorError)
from fuzznorm.reports import GridDomain

F = Fraction

grid_points = st.integers(min_value=0, max_value=12).map(lambda i: F(i, 12))


def test_tnorm_closed_forms():
    assert T_L(F(7, 10), F(1, 2)) == F(1, 5)
    assert T_M(F(3, 10), F(1)) == F(3, 10)
    assert T_D(F(3, 10), F(9, 10)) == 0
    assert T_P(F(1, 2), F(1, 2)) == F(1, 4)


def test_tconorm_closed_forms():
    assert S_P(F(1, 2), F(1, 2)) == F(3, 4)
    assert S_M(F(2, 5), F(0)) == F(2, 5)
    assert S_L(F(7, 10), F(1, 2)) == 1
    assert S_D(F(1, 10), F(1, 10)) == 1


def test_unknown_family_rejected():
    with pytest.raises(UnknownOperatorError) as err:
        parse_operator("tnorm:T_X")
    assert str(err.value) == "unknown t-norm: 'T_X'"
    with pytest.raises(UnknownOperatorError) as err:
        parse_operator("tconorm:nope")
    assert str(err.value) == "unknown t-conorm: 'nope'"


def test_a_value_that_is_not_a_number_is_refused_at_the_boundary():
    """An operator that returns None off grid 4 is refused where its value
    is read, with a ``DomainError``, before a compiled check interns it."""
    pts = set(GridDomain(4).points)
    partial_product = Connective(
        "tnorm:none-off-grid", Role.TNORM,
        lambda x, y: x * y if x in pts and y in pts else None, identity=F(1))
    assert partial_product(F(1, 2), F(1, 2)) == F(1, 4)
    with pytest.raises(DomainError, match="returned None, not a number"):
        partial_product(F(1, 4), F(1, 16))
    with pytest.raises(DomainError, match="tnorm:none-off-grid returned None"):
        check_axioms(partial_product, GridDomain(4))


def test_power_iterate():
    assert power_iterate(T_P, F(1, 2), 3) == F(1, 8)
    assert power_iterate(T_L, F(9, 10), 0) == 1
    assert power_iterate(T_M, F(1, 2), 100) == F(1, 2)
    assert power_iterate(T_L, F(9, 10), 10) == 0


def test_power_iterate_errors():
    with pytest.raises(DomainError):
        power_iterate(T_P, F(1, 2), -1)
    anonymous = Connective("anon", Role.TNORM, lambda x, y: x * y)
    with pytest.raises(DomainError):
        power_iterate(anonymous, F(1, 2), 0)


@settings(max_examples=60, deadline=None)
@given(grid_points, grid_points, st.integers(0, 4), st.integers(0, 4))
def test_power_additivity(x, y, m, n):
    # T(x^(m), x^(n)) = x^(m+n), a consequence of associativity
    for conn in BUILTIN_TNORMS:
        lhs = conn(power_iterate(conn, x, m + 1), power_iterate(conn, x, n + 1))
        assert lhs == power_iterate(conn, x, m + n + 2)


class TestUninormConstruction:
    def test_min_branch_values(self):
        u = construct_uninorm_min(F(1, 2), T_P, S_P)
        assert u(F(1, 4), F(1, 4)) == F(1, 8)
        assert u(F(3, 10), F(1, 2)) == F(3, 10)  # identity element
        assert u(F(0), F(1)) == 0

    def test_max_branch_values(self):
        u = construct_uninorm_max(F(1, 2), T_P, S_P)
        assert u(F(1, 4), F(3, 4)) == F(3, 4)
        assert u(F(0), F(1)) == 1
        u_l = construct_uninorm_max(F(1, 2), T_P, S_L)
        assert u_l(F(3, 4), F(3, 4)) == 1

    def test_degenerate_identity_rejected(self):
        for e in (0, 1):
            with pytest.raises(DegenerateParameterError):
                construct_uninorm_min(e, T_P, S_P)
            with pytest.raises(DegenerateParameterError):
                construct_uninorm_max(e, T_P, S_P)

    def test_role_validation(self):
        with pytest.raises(DomainError):
            construct_uninorm_min(F(1, 2), S_P, S_P)

    @settings(max_examples=40, deadline=None)
    @given(grid_points, grid_points)
    def test_mixed_region_bounded(self, x, y):
        e = F(1, 2)
        u = construct_uninorm_min(e, T_P, S_P)
        if min(x, y) < e < max(x, y):
            assert min(x, y) <= u(x, y) <= max(x, y)


class TestNullnormConstruction:
    def test_branch_values(self):
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        assert f(F(1, 4), F(1, 4)) == F(1, 2)
        assert f(F(1, 2), F(9, 10)) == F(1, 2)  # absorbing element
        assert f(F(0), F(3, 10)) == F(3, 10)
        assert f(F(1), F(3, 4)) == F(3, 4)

    def test_mixed_region_is_constant(self):
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        k = F(1, 2)
        pts = [F(i, 8) for i in range(9)]
        for x in pts:
            for y in pts:
                if (x < k and y > k) or (x > k and y < k):
                    assert f(x, y) == k

    def test_degenerate_absorber_rejected(self):
        for k in (0, 1):
            with pytest.raises(DegenerateParameterError):
                construct_nullnorm(S_L, k, T_L)


class TestDualize:
    def test_examples(self):
        assert dualize(T_M)(F(3, 10), F(4, 5)) == F(4, 5)
        assert dualize(T_L)(F(7, 10), F(1, 2)) == 1

    def test_role_error(self):
        with pytest.raises(DomainError):
            dualize(A_MIN)

    @settings(max_examples=60, deadline=None)
    @given(grid_points, grid_points)
    def test_dual_pairs_and_involution(self, x, y):
        for t, s in zip(BUILTIN_TNORMS, BUILTIN_TCONORMS):
            assert dualize(t)(x, y) == s(x, y)
            assert dualize(dualize(t))(x, y) == t(x, y)
        assert dualize(T_L)(F(0), x) == x

    @settings(max_examples=60, deadline=None)
    @given(grid_points, grid_points)
    def test_builtin_tnorms_commute_below_min(self, x, y):
        for conn in BUILTIN_TNORMS:
            assert conn(x, y) == conn(y, x)
            assert conn(x, y) <= min(x, y)


class TestParseOperator:
    def test_builtin_ids_round_trip(self):
        for conn in BUILTIN_TNORMS + BUILTIN_TCONORMS + (A_MIN,):
            assert parse_operator(conn.name) is conn

    def test_uninorm_named_and_positional(self):
        named = parse_operator("uninorm:umin(e=1/2,T=product,S=probsum)")
        positional = parse_operator("uninorm:umin(1/2,product,probsum)")
        assert named.name == positional.name
        assert named.identity == F(1, 2)
        assert named(F(1, 4), F(1, 4)) == positional(F(1, 4), F(1, 4)) == F(1, 8)

    def test_constructed_name_reparses(self):
        u = construct_uninorm_max(F(3, 4), T_L, S_L)
        again = parse_operator(u.name)
        assert again.name == u.name
        f = construct_nullnorm(S_L, F(1, 2), T_L)
        assert parse_operator(f.name).name == f.name
        assert parse_operator(f.name)(F(1, 4), F(1, 4)) == F(1, 2)

    def test_nullnorm_suffixes_optional(self):
        a = parse_operator("nullnorm:<lukasiewicz-S,1/2,lukasiewicz-T>")
        b = parse_operator("nullnorm:<lukasiewicz,1/2,lukasiewicz>")
        assert a(F(1, 4), F(1, 4)) == b(F(1, 4), F(1, 4))

    def test_bad_ids(self):
        for bad in ("tnorm:median", "uninorm:umin(0,product,probsum)",
                    "uninorm:umin(1/2,product)", "nullnorm:<probsum,1/2>",
                    "garbage", "uninorm:umin(e=1/2,T=product)"):
            with pytest.raises(UnknownOperatorError):
                parse_operator(bad)


class TestSpliceContract:
    """The three splice constructions: they pickle, and their names and
    refusal messages are exact."""

    PAIRS = [(T_P, S_P), (T_L, S_L)]
    POINTS = [F(1, 4), F(1, 2), F(3, 4)]
    GRID = GridDomain(8).points

    def _built(self):
        for t_conn, s_conn in self.PAIRS:
            for p in self.POINTS:
                yield construct_uninorm_min(p, t_conn, s_conn)
                yield construct_uninorm_max(p, t_conn, s_conn)
                yield construct_nullnorm(s_conn, p, t_conn)

    def test_pickle_round_trip(self):
        for conn in self._built():
            again = pickle.loads(pickle.dumps(conn))
            assert again.name == conn.name
            assert (again.role, again.identity, again.absorber) == (
                conn.role, conn.identity, conn.absorber)
            assert [again(x, y) for x in self.GRID for y in self.GRID] == [
                conn(x, y) for x in self.GRID for y in self.GRID], conn.name

    def test_names(self):
        assert [c.name for c in self._built()] == [
            name for t, s in (("product", "probsum"),
                              ("lukasiewicz", "lukasiewicz"))
            for p in ("1/4", "1/2", "3/4")
            for name in (f"uninorm:umin(e={p},T={t},S={s})",
                         f"uninorm:umax(e={p},T={t},S={s})",
                         f"nullnorm:<{s}-S,{p},{t}-T>")]

    @pytest.mark.parametrize("build", [construct_uninorm_min,
                                       construct_uninorm_max])
    def test_uninorm_refusals(self, build):
        for e in (0, 1):
            with pytest.raises(DegenerateParameterError) as err:
                build(e, T_P, S_P)
            assert str(err.value) == (f"identity e={e} is degenerate; "
                                      "use a plain t-norm or t-conorm instead")
        # the parameter is checked before the roles, the t-norm before
        # the t-conorm
        with pytest.raises(DegenerateParameterError):
            build(0, S_P, T_P)
        for t_conn, s_conn, message in (
                (S_P, S_P, "expected a t-norm, got tconorm:probsum"),
                (S_P, T_P, "expected a t-norm, got tconorm:probsum"),
                (T_P, T_P, "expected a t-conorm, got tnorm:product")):
            with pytest.raises(DomainError) as err:
                build(F(1, 2), t_conn, s_conn)
            assert str(err.value) == message

    def test_nullnorm_refusals(self):
        for k in (0, 1):
            with pytest.raises(DegenerateParameterError) as err:
                construct_nullnorm(S_P, k, T_P)
            assert str(err.value) == (f"absorber k={k} is degenerate; "
                                      "use a plain t-norm or t-conorm instead")
        with pytest.raises(DegenerateParameterError):
            construct_nullnorm(T_P, 0, S_P)
        for s_conn, t_conn, message in (
                (T_P, S_P, "expected a t-norm, got tconorm:probsum"),
                (S_P, S_P, "expected a t-norm, got tconorm:probsum"),
                (T_P, T_P, "expected a t-conorm, got tnorm:product")):
            with pytest.raises(DomainError) as err:
                construct_nullnorm(s_conn, F(1, 2), t_conn)
            assert str(err.value) == message
