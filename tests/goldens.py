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
