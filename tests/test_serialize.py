"""JSON round trips must be bit-exact; malformed input must fail with a
located error, never a silent approximation."""

import json
from fractions import Fraction as F

import pytest

from privopt import LossFunction, Remap, UserModel, truncated_geometric
from privopt.nonoblivious import binary_space, lift
from privopt.serialize import (
    FormatError,
    dumps,
    full_mechanism_from_jsonable,
    full_mechanism_to_jsonable,
    loss_from_jsonable,
    loss_to_jsonable,
    mechanism_from_jsonable,
    mechanism_to_jsonable,
    read_json,
    remap_from_jsonable,
    remap_to_jsonable,
    space_from_jsonable,
    space_to_jsonable,
    user_from_jsonable,
    user_to_jsonable,
    write_json,
)

from goldens import ALPHA_HALF, BENCHMARK_USER


class TestMechanismRoundTrip:
    def test_bit_exact(self):
        g = truncated_geometric(ALPHA_HALF, 5)
        data = mechanism_to_jsonable(g, alpha=F(1, 2))
        back, alpha = mechanism_from_jsonable(data)
        assert back.rows == g.rows
        assert back.responses == g.responses
        assert alpha == F(1, 2)

    def test_alpha_optional(self):
        g = truncated_geometric(ALPHA_HALF, 2)
        back, alpha = mechanism_from_jsonable(mechanism_to_jsonable(g))
        assert alpha is None
        assert back.rows == g.rows

    def test_rationals_serialized_lowest_terms(self):
        g = truncated_geometric(ALPHA_HALF, 1)
        data = mechanism_to_jsonable(g)
        assert data["rows"][0] == ["2/3", "1/3"]

    def test_integer_entries_accepted(self):
        data = {"n": 1, "responses": [0, 1], "rows": [[1, 0], [1, 0]]}
        back, _ = mechanism_from_jsonable(data)
        assert back.rows == ((F(1), F(0)), (F(1), F(0)))

    def test_decimal_strings_accepted(self):
        data = {"n": 1, "responses": [0, 1],
                "rows": [["0.5", "0.5"], ["0.25", "0.75"]]}
        back, _ = mechanism_from_jsonable(data)
        assert back.rows[1] == (F(1, 4), F(3, 4))

    def test_floats_rejected_with_path(self):
        data = {"n": 1, "responses": [0, 1], "rows": [[0.5, 0.5], [1, 0]]}
        with pytest.raises(FormatError) as err:
            mechanism_from_jsonable(data)
        assert "rows" in str(err.value)

    def test_unknown_key_rejected(self):
        data = {"n": 1, "responses": [0, 1], "rows": [[1, 0], [1, 0]],
                "extra": 1}
        with pytest.raises(FormatError):
            mechanism_from_jsonable(data)

    def test_missing_key_rejected(self):
        with pytest.raises(FormatError):
            mechanism_from_jsonable({"n": 1, "responses": [0, 1]})


class TestLossAndUser:
    @pytest.mark.parametrize("loss", [
        LossFunction(kind="absolute"),
        LossFunction(kind="squared"),
        LossFunction(kind="binary"),
        LossFunction(kind="power", exponent=F(3, 2)),
        LossFunction(kind="tabulated", table=((F(0), F(2)), (F(1), F(0)))),
    ])
    def test_loss_round_trip(self, loss):
        assert loss_from_jsonable(loss_to_jsonable(loss)) == loss

    def test_power_needs_exponent(self):
        with pytest.raises(FormatError):
            loss_from_jsonable({"kind": "power"})

    def test_tabulated_needs_table(self):
        with pytest.raises(FormatError):
            loss_from_jsonable({"kind": "tabulated"})

    def test_user_round_trip(self):
        back = user_from_jsonable(user_to_jsonable(BENCHMARK_USER))
        assert back == BENCHMARK_USER

    def test_user_exponent_decimal_text(self):
        u = user_from_jsonable({"prior": ["1/2", "1/2"],
                                "loss": {"kind": "power", "exponent": "1.5"}})
        assert u.loss.exponent == F(3, 2)


class TestRemapRoundTrip:
    def test_deterministic_map(self):
        y = Remap(sources=(0, 1, 2), targets=(0, 1, 2), mapping=[0, 2, 2])
        back = remap_from_jsonable(remap_to_jsonable(y))
        assert back.as_map() == y.as_map()

    def test_bad_rational_named(self):
        data = remap_to_jsonable(
            Remap(sources=(0, 1), targets=(0, 1), mapping=[0, 1]))
        data["rows"][0][0] = "one half"
        with pytest.raises(FormatError) as err:
            remap_from_jsonable(data)
        assert "rows" in str(err.value)

    def test_randomized_row_rejected(self):
        data = {"sources": [0, 1], "targets": [0, 1],
                "rows": [["1/2", "1/2"], ["0", "1"]]}
        with pytest.raises(FormatError) as err:
            remap_from_jsonable(data)
        assert err.value.path == "remap.rows[0]"


class TestSpaceAndFullMechanism:
    def test_space_round_trip(self):
        sp = binary_space(3)
        back = space_from_jsonable(space_to_jsonable(sp))
        assert back.databases == sp.databases
        assert back.positive == sp.positive

    def test_full_mechanism_embedded_space(self):
        sp = binary_space(2)
        x = lift(truncated_geometric(ALPHA_HALF, 2), sp)
        back = full_mechanism_from_jsonable(full_mechanism_to_jsonable(x))
        assert back.rows == x.rows

    def test_full_mechanism_supplied_space(self):
        sp = binary_space(2)
        x = lift(truncated_geometric(ALPHA_HALF, 2), sp)
        data = full_mechanism_to_jsonable(x)
        del data["space"]
        back = full_mechanism_from_jsonable(data, space=sp)
        assert back.rows == x.rows

    def test_full_mechanism_no_space_rejected(self):
        sp = binary_space(2)
        x = lift(truncated_geometric(ALPHA_HALF, 2), sp)
        data = full_mechanism_to_jsonable(x)
        del data["space"]
        with pytest.raises(FormatError):
            full_mechanism_from_jsonable(data)


class TestFiles:
    def test_canonical_dumps_stable(self):
        data = mechanism_to_jsonable(truncated_geometric(ALPHA_HALF, 1))
        text = dumps(data)
        assert text.endswith("\n")
        assert text == dumps(json.loads(text))

    def test_write_then_read(self, tmp_path):
        p = tmp_path / "mech.json"
        data = mechanism_to_jsonable(truncated_geometric(ALPHA_HALF, 3))
        write_json(p, data)
        assert read_json(p) == data

    def test_invalid_json_becomes_format_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            read_json(p)
