"""Frozen reference values shared across test modules.

The benchmark user is n=5, alpha=1/2, prior (1/4, 0, 1/4, 0, 1/4, 1/4),
loss |i-r|^1.5. Its optimal mechanism, that mechanism's constraint
pattern, and the remap that rebuilds it from the geometric mechanism are
all pinned here exactly.
"""

from fractions import Fraction as F

from privopt import LossFunction, PrivacyLevel, UserModel

ALPHA_HALF = PrivacyLevel(F(1, 2))

BENCHMARK_USER = UserModel(
    prior=(F(1, 4), F(0), F(1, 4), F(0), F(1, 4), F(1, 4)),
    loss=LossFunction(kind="power", exponent=F(3, 2)),
)

# 36 exact entries of the benchmark user's optimal mechanism
BENCHMARK_VERTEX = (
    (F(2, 3), F(0), F(1, 4), F(1, 24), F(1, 48), F(1, 48)),
    (F(1, 3), F(0), F(1, 2), F(1, 12), F(1, 24), F(1, 24)),
    (F(1, 6), F(0), F(1, 2), F(1, 6), F(1, 12), F(1, 12)),
    (F(1, 12), F(0), F(1, 4), F(1, 3), F(1, 6), F(1, 6)),
    (F(1, 24), F(0), F(1, 8), F(1, 6), F(1, 3), F(1, 3)),
    (F(1, 48), F(0), F(1, 16), F(1, 12), F(1, 6), F(2, 3)),
)

# its constraint pattern: rows are adjacent result pairs, columns responses
BENCHMARK_GRID = (
    "vZ^^^^",
    "vZS^^^",
    "vZv^^^",
    "vZvv^^",
    "vZvvv^",
)

# deterministic remap rebuilding the vertex from the geometric mechanism
BENCHMARK_DERIVED_MAP = {0: 0, 1: 2, 2: 2, 3: 3, 4: 4, 5: 5}

# two-point endpoint user: half the mass on 0, half on n
def endpoint_user(n: int, kind: str = "binary") -> UserModel:
    prior = [F(0)] * (n + 1)
    prior[0] = F(1, 2)
    prior[n] = F(1, 2)
    return UserModel(prior=tuple(prior), loss=LossFunction(kind=kind))

# Exact str() of three irrational losses at 64 digits. Other tests compare
# irrational losses only within 1e-30; these also catch a change in the
# order of the Decimal roundings.
BENCHMARK_VERTEX_LOSS = (
    "1.194232155316291912540873026844952008357289650909520849876197828")

# power-1/2 user at n = 12 with prior weights 1..13; loss of the truncated
# geometric mechanism (alpha 1/2) after the user's optimal remap
RAMP_USER_12 = UserModel(
    prior=tuple(F(k + 1, 91) for k in range(13)),
    loss=LossFunction(kind="power", exponent=F(1, 2)),
)
RAMP_USER_12_REMAPPED_LOSS = (
    "0.7932395215741042859101291709802221745561073642841276743601276550")

# power-3/2 user at n = 3; worst-case loss of the truncated geometric
# mechanism (alpha 1/2) lifted to the databases of binary_space(3)
LIFT_USER_3 = UserModel(
    prior=(F(1, 8), F(3, 8), F(1, 4), F(1, 4)),
    loss=LossFunction(kind="power", exponent=F(3, 2)),
)
LIFT_USER_3_WORST_LOSS = (
    "0.9203959363522954886519887906563020973468407921259799536989160000")

# Exact stdout of `privopt remap` on the geometric mechanism (alpha 1/2,
# n = 5) and the benchmark user: the remap as JSON indicator rows.
BENCHMARK_REMAP_STDOUT = """\
{
  "rows": [
    [
      "1",
      "0",
      "0",
      "0",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "1",
      "0",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "1",
      "0",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "0",
      "1",
      "0",
      "0"
    ],
    [
      "0",
      "0",
      "0",
      "0",
      "1",
      "0"
    ],
    [
      "0",
      "0",
      "0",
      "0",
      "0",
      "1"
    ]
  ],
  "sources": [
    0,
    1,
    2,
    3,
    4,
    5
  ],
  "targets": [
    0,
    1,
    2,
    3,
    4,
    5
  ]
}
"""

# "derived_remap" of `privopt analyze` on the benchmark vertex
BENCHMARK_ANALYZE_DERIVED_REMAP = {
    "0": 0, "1": 2, "2": 2, "3": 3, "4": 4, "5": 5}

# Pivot path of the exact simplex: a change to the pivot rule or to the
# arithmetic of a pivot shows here first. Pivots and alternate optima of
# the benchmark user's LP at alpha 1/2:
BENCHMARK_PIVOTS = 31
BENCHMARK_ALTERNATE_OPTIMA = 0

# Pivots with Bland's rule from the first degenerate pivot on, as under
# _DEGENERATE_STREAK_LIMIT = 0, against Dantzig's rule: Beale's cycling
# example takes the same six pivots either way; the benchmark user's LP
# takes 56 against BENCHMARK_PIVOTS.
BEALE_PIVOTS = 6
BLAND_PIVOTS = dict(beale=6, benchmark=56)

# check_counterexample_infeasibility(alpha) at alpha 1/2 (infeasible) and
# 1/4 (feasible): the final basis, basic values, Farkas multipliers and
# vertex, each written as the str() of its entries joined by spaces (None
# where the result has none), and the SHA-256 of every tableau_column(j),
# j = 0..width-1, written the same way one column per line.
COUNTEREXAMPLE_PATH_HALF = dict(
    pivots=66,
    basis=(
        "49 129 31 131 88 133 112 135 0 33 92 34 2 37 3 39 40 8 1 43 6 45 46 "
        "11 4 64 5 51 52 18 7 55 16 57 17 74 10 61 19 78 12 65 13 66 14 100 "
        "15 71 20 73 21 75 76 77 23 79 32 81 58 82 22 85 62 87 24 120 83 90 "
        "26 116 27 95 48 97 98 99 30 101 102 103 41 105 106 107 68 109 110 "
        "111 80 113 114 115 84 117 118 94 104 121 122 123 124 125 126 127 136 "
        "9 28 139 140 141 36 143 42 145 146 29 38 149 150 151"),
    basic_values=(
        "3/4 1/4 1/12 1/2 7/8 1/2 7/8 1/4 2/3 3/4 1/8 0 1/6 1/4 1/6 1/4 1/2 "
        "7/12 0 0 1/12 1/4 1/2 1/3 7/12 0 0 0 1/2 1/3 1/12 1/4 7/12 7/8 0 0 "
        "1/12 1/8 1/12 0 7/24 7/8 0 0 1/24 0 1/6 1/8 7/24 7/8 0 0 0 1/8 1/24 "
        "1/2 1/2 1/2 0 0 1/6 0 1/4 1/2 2/3 1/2 0 0 1/6 0 1/6 1/4 1/2 7/8 0 0 "
        "1/12 1/2 0 1/8 3/4 1/2 0 0 1/4 1/2 1/4 0 3/4 0 0 0 1/4 1/4 1/8 0 3/4 "
        "3/4 0 0 0 1/4 0 1/4 0 0 7/12 0 9/4 3/4 0 3/2 0 0 0 0 0 3/2 9/4 3/4"),
    multipliers=(
        "0 1 129/5 1 -49/5 1 0 1 0 0 0 -90 0 0 0 0 0 0 0 0 -104/5 0 0 -408/5 "
        "0 0 -180 0 0 -52/5 -816/5 0 -2 0 0 -24 -42 0 0 -20 0 0 0 -20 0 -20 "
        "-42 0 -40 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -2 0 -2 0 -2 0 0 -44 0 0 0 "
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 -2 0 0 0 0 0 0 0 0 12 -866/5 "
        "-89/5 3 6 6 -51 3 99/5 3 12 -144/5 -51 3 6 6"),
    x=None,
    tableau_sha256=(
        "357d6b3cc87cd30a77e8b81aa7bd69df04f09ac9f2ce317ff506c3870315e324"),
)
COUNTEREXAMPLE_PATH_QUARTER = dict(
    pivots=67,
    basis=(
        "57 32 31 102 38 96 88 70 0 33 1 35 2 37 3 39 40 8 42 9 6 45 46 11 4 "
        "49 5 51 52 18 7 55 16 72 17 74 10 61 19 78 12 65 13 82 14 100 15 71 "
        "20 73 21 75 76 77 23 79 56 81 58 83 22 85 62 87 24 89 25 60 26 116 "
        "27 95 48 97 98 66 30 101 54 103 104 105 106 107 68 109 110 111 112 "
        "113 114 90 84 117 118 94 80 121 122 50 124 125 126 127 64 137 28 139 "
        "140 59 41 143 144 92 146 29 148 36 150 34"),
    basic_values=(
        "5/2 2259/1156 1966/13005 347/3468 8/17 655/1156 751/1734 29/1734 "
        "43769/52020 8/3 839/52020 28/867 979/13005 1/6 874/13005 233/1734 "
        "7/4 33701/52020 839/3468 839/13005 3497/26010 979/3468 874/867 "
        "3496/13005 9089/13005 11/4 419/13005 28/867 979/867 3916/13005 "
        "3497/26010 755/3468 32021/52020 109/204 419/13005 23/51 979/52020 "
        "1/2 2659/52020 32/17 7687/26010 5/2 1676/13005 23/51 983/26010 "
        "1604/867 6994/13005 1/2 7687/26010 1327/578 1676/13005 112/867 9/68 "
        "65/1734 983/26010 466/867 419/867 95/51 419/867 112/867 6994/13005 0 "
        "3497/1734 874/867 9476/13005 1 1676/13005 29/1734 979/13005 58/867 "
        "874/13005 2 5621/3468 13/6 419/867 419/867 1966/13005 2/3 7/51 1/6 "
        "469/204 501/289 419/867 0 3497/1734 979/867 755/3468 7/51 751/1734 1 "
        "1676/867 1676/867 979/3468 2 983/1734 58/867 7861/3468 2369/867 "
        "1676/867 23/204 9/17 130/867 466/867 2/17 419/867 0 2369/13005 0 0 0 "
        "9425/3468 0 0 983/1734 0 6704/13005 0 401/867 0 23/204"),
    multipliers=None,
    x=(
        "43769/52020 839/52020 979/13005 874/13005 9089/13005 419/13005 "
        "3497/26010 3497/26010 33701/52020 839/13005 979/52020 3496/13005 "
        "7687/26010 1676/13005 983/26010 6994/13005 32021/52020 419/13005 "
        "3916/13005 2659/52020 7687/26010 1676/13005 6994/13005 983/26010 "
        "9476/13005 1676/13005 979/13005 874/13005 2369/13005 6704/13005 "
        "1966/13005 1966/13005"),
    tableau_sha256=(
        "33212bb3f1f8c04ce73b93878ca20aafd3d121ae43a3b0d5c0d07c4779841d01"),
)

# The per-user LP at n = 8, alpha 1/2, for a full-support user with prior
# weights USER_8_WEIGHTS (normalized), under absolute and power-3/2 loss:
# its simplex result's pivots, the vertex's alternate optima, the final
# basis, and the SHA-256 of the basic values and of every
# tableau_column(j), j = 0..width-1, written as above.
USER_8_WEIGHTS = (5, 3, 8, 1, 9, 2, 7, 4, 6)
USER_8_PATH_ABSOLUTE = dict(
    pivots=76,
    alternate_optima=0,
    basis=(
        "72 0 74 8 76 16 78 24 80 32 82 40 84 48 86 56 88 89 90 106 92 17 94 "
        "25 96 33 98 41 100 49 102 57 10 105 18 107 108 2 110 26 112 34 114 "
        "42 116 50 118 58 11 121 19 123 27 125 126 3 128 35 130 43 132 51 134 "
        "59 12 137 20 139 28 141 36 143 144 4 146 44 148 52 150 60 13 153 21 "
        "155 29 157 37 159 45 161 162 5 164 53 166 61 14 169 22 171 30 173 38 "
        "175 46 177 54 179 180 6 182 62 15 185 23 187 31 189 39 191 47 193 55 "
        "195 63 197 198 7 201 67 203 66 65 205 64 207 68 209 69 211 70 213 71 "
        "215 216 217 218 219 220 221 222 223 224"),
    basic_values_sha256=(
        "b140cb53daa4097dd6f2da1ff1beb0bca70d6cc979714efb3a2fdd804a81fbab"),
    tableau_sha256=(
        "e4d0944ff1ef5e188d455cd52380cd90f954e027088a8f9b3ba5920d9e86c2b6"),
)
USER_8_PATH_POWER = dict(
    pivots=78,
    alternate_optima=0,
    basis=(
        "72 88 74 8 76 16 78 24 80 32 82 40 84 48 86 56 9 106 90 1 92 17 94 "
        "25 96 33 98 41 100 49 102 57 10 105 18 107 108 2 110 26 112 34 114 "
        "42 116 50 118 58 11 121 19 123 27 125 126 3 128 35 130 43 132 51 134 "
        "59 12 137 20 139 28 141 36 143 144 4 146 44 148 52 150 60 13 153 21 "
        "155 29 157 37 159 45 161 162 5 164 53 166 61 14 169 22 171 30 173 38 "
        "175 46 177 54 179 180 6 182 62 15 185 23 187 31 189 39 191 47 193 55 "
        "195 63 197 198 7 199 67 202 66 65 205 64 207 68 209 69 211 70 213 71 "
        "215 216 217 218 219 220 221 222 223 224"),
    basic_values_sha256=(
        "6d1ddc7874e9aaf314b2cef5a7e479d36dac5c145ebb44e6b4b16ddfb837c782"),
    tableau_sha256=(
        "b7a00a55c0548d7e12ccf081c70cb2d561cb983bd2306b1174f822ad79b20ba7"),
)

# Two-point user under power-1/2 loss at n = 4: half the prior on 0, half
# on 4. The vertex the solve returns has one nonbasic column with a zero
# reduced cost: an alternate optimum under an irrational loss. Per alpha:
# pivots, alternate optima and the vertex's rows, each row written as above.
ROOT_ENDPOINT_USER = UserModel(
    prior=(F(1, 2), F(0), F(0), F(0), F(1, 2)),
    loss=LossFunction(kind="power", exponent=F(1, 2)),
)
ROOT_ENDPOINT_PATHS = {
    F(1, 2): dict(
        pivots=20,
        alternate_optima=1,
        rows=("5/6 0 0 0 1/6", "2/3 0 0 0 1/3", "1/3 0 0 0 2/3",
              "1/6 0 0 0 5/6", "1/12 0 0 0 11/12"),
    ),
    F(1, 4): dict(
        pivots=20,
        alternate_optima=1,
        rows=("19/20 0 0 0 1/20", "4/5 0 0 0 1/5", "1/5 0 0 0 4/5",
              "1/20 0 0 0 19/20", "1/80 0 0 0 79/80"),
    ),
}

# A small infeasible LP whose rows exercise every sign flip of the row
# scales: (2/3)x1 + x2 >= 5/2 (negated), (1/2)x1 - x2 <= -1 (negative
# right-hand side, so an artificial and a -1 slack) and x1 + 2x2 = 1.
# Its Farkas multipliers, pivots, final basis, basic values and every
# tableau_column(j), j = 0..width-1, each written as above.
MIXED_SIGN_LP = (
    ((F(2, 3), F(1)), ">=", F(5, 2)),
    ((F(1, 2), F(-1)), "<=", F(-1)),
    ((F(1), F(2)), "==", F(1)),
)
MIXED_SIGN_PATH = dict(
    multipliers="6 -2 -4",
    pivots=1,
    basis="4 5 1",
    basic_values="12 1 1/2",
    columns=("1 -2 1/2", "0 0 1", "-1 0 0", "0 -1 0"),
)
