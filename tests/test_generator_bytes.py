"""Generator output pinned byte for byte.

One SHA-256 per case over the canonical wire JSON of a generated bouquet or
determinant circuit; a bouquet's digest also pins what `smlc gen bouquet`
writes for it.  Node ids are part of that text (leaves are numbered
where they are first used), so a change to how the Leibniz terms are emitted
fails here even when the circuit still computes the determinant.  The
digests are fixed and are not regenerated by a change.
"""

import hashlib
import itertools
import math
import random

import pytest
from recheck import run_cli

from smlc.generators import (
    _leibniz_signs,
    det_bouquet,
    det_regular_circuit,
    distinct_perms,
    dp_det_bouquet,
    seeded_det_bouquet,
)
from smlc.poly import sign_of_permutation
from smlc.serialize import bouquet_to_obj, circuit_to_obj, dumps


def _digest(obj):
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


# (n, k, seed) -> digest of seeded_det_bouquet(n, k, seed)
BOUQUETS = {
    (1, 1, 1): "afe77e9803be9d13d9be068e61977e0d5514f57db13758f632b088da716539b1",
    (1, 1, 7): "afe77e9803be9d13d9be068e61977e0d5514f57db13758f632b088da716539b1",
    (2, 1, 1): "e08a3f74e7c3d4b190e84c014fa625af58ec7b10b1df1c7cfc7b3f50d632a21c",
    (2, 1, 7): "77f33db826f35ed641f5950a92344fe41c877d32dda6d0f8bad8792082c275c8",
    (2, 2, 1): "6fe951d58a84eadadb9f30a45a5e2c33dfa37fe2e4b96aa1bfb52820cba62b8f",
    (2, 2, 7): "84e854c331727d4b80266c7f95c259eadea9738b3701bace397a7c781e4b0d94",
    (3, 1, 1): "88656487e25013fa1926dc98bcbaf086c764834f81f602103728fd937bb0fc1b",
    (3, 1, 7): "b099717ac14ca7c86bf19720ec59d9a51edcf5018c5880b32bac084ce029386f",
    (3, 2, 1): "a45c47e490ebff78a06d6e2a167f3d1e3bc992dbec3e58f228840e78321d3083",
    (3, 2, 7): "759316dbb53d9e21450c475cfccbf6e6374fcd9d93e71b4dd78c53b14cbc551f",
    (3, 3, 1): "2021e7bc3534521b17c76fab6a50b65c6b74ef2a8586d1adbb8f75bc360ec14d",
    (3, 3, 7): "31f948919cb61c598f9ead5b470be1d11b0fbec18ce48d2a4f11400d0dcc61a7",
    (4, 1, 1): "ada3f5a9fe2fcb849a461c898ae0222dd0af548a190a14f224499bac91c4cb51",
    (4, 1, 7): "d70026e1b71a5054b0be34276731791a0ae3777f86775661f6febe62bd49018d",
    (4, 2, 1): "d05898a698122baa8dceaf5e8f9cd103217323194154f1f36c09ad6f9d8a1cc5",
    (4, 2, 7): "8eb7ac314050377aa194ab1ac95799413d4f7a6b8388da1541cb4281594d6b68",
    (4, 3, 1): "7e6b884971f2cf99d7e959821a765a22c28352e660bc9bd2650dbe40acd2d53d",
    (4, 3, 7): "8f6fc3bf2601396a3d0c17c6a534091de4d314ed6e3fe810eab0781cdb4087aa",
    (5, 1, 1): "7eca47936fc41471775e65e027e60d97445e909ff96280f138877102dc9d77d1",
    (5, 1, 7): "7ae53460acc33fc87f420f018e937e2dcf274b9b77e5ba45707cdc478f9e2928",
    (5, 2, 1): "681474bc9d6d0c49e6cfbc107555336ab4deca0903acda216be6047b637013ad",
    (5, 2, 7): "f942f72826de466572a0b27e14ec06dbfe8ac53b8b73700655690e4d1af79e90",
    (5, 3, 1): "8f6d42337658f89d8a8c66b64280c711694654f58a2acfd52fbf79f68b2f71a4",
    (5, 3, 7): "952c06415fd5d2e61515a977b14c6484a0ac79538e43ddf043a01642fcb255f1",
    (6, 1, 1): "a9dc1246bf62992c08ff3e0a3e7dbf7426969f8d2f0f269ce5c442ce5f25dc95",
    (6, 1, 7): "7fbabcbf2d4345e74ddad46e4546b47ef7714695df82336576b9641a41082103",
    (6, 2, 1): "fe719f1b9b65a3868fab2a61f9860584a3b6e99b1df0e9b6c60c724ad1aada23",
    (6, 2, 7): "068f898889b5806f86352026c3c547f2b883b9a610f5cc14785f78182d8dcfe1",
    (6, 3, 1): "4fe554f1f87340c57fb44ea5a4bc849652a5848e18c007fbf3be1f6bd00085ac",
    (6, 3, 7): "92a56ef92b06dd47673b90b9d39ad98b4a175a98fd7431242022ef0f9483a208",
    (7, 1, 1): "7c8a9568ca9e34eceb6edc33489f9b9f0655ee24128fe287b06ab3a66ca3c742",
    (7, 1, 7): "e66db5b2d492e1ba0a51ab643889369f046cb84c2d42310ab185973f78fb6c08",
    (7, 2, 1): "a7eb17069d98ada13e84f526948602b87497651081a79dadc8d7ccffeab25b6d",
    (7, 2, 7): "daf3996293c18457cb60182309ce50348f6f4b2546c19a6feb4e9e456b50ffad",
    (7, 3, 1): "c709834e1b98112708d84c26926256e4677511b2ca7eab8dbef3f5b6b43fc3c4",
    (7, 3, 7): "8fd975dc277d941a56dac4d1e5bfbb9ae896d0baf4eb63795a25216cedda36f6",
}

# sigma -> digest of det_regular_circuit(len(sigma), sigma).circuit
DETERMINANTS = {
    (1,): "f830a62eefab4699d44f3192ce273df92727b4864083575cb74c901d3bf559a5",
    (2, 1): "5c804a83823201c15ce48d6034951fd992a900a7f4df9ccc07ae642586cb66bd",
    (3, 1, 2): "54fb498a4b5562cff2d2d51ac6f0a250f0e788ec76c113db62bc3824f83d8924",
    (2, 4, 1, 3): "410e4145f3a09088ef7b8871473fb69ff2e91f8d76c552a1ebafc8ea26996089",
    (5, 3, 1, 4, 2): "e10a47b46597e1787ad1b9d7f646f766ba24260d2933dd96dc39b96fef53c0d0",
    (6, 2, 4, 1, 5, 3): "7870fcc7aa69f6a01f6c9cfe628d2f37af793574c52c5f50f61428cb2bd995e4",
    (4, 7, 1, 6, 2, 5, 3): "a306ceedf5071b9797745be8654a9df71cf106074717a394fd7fef4f2dc2c859",
}

# (n, k, seed) -> digest of dp_det_bouquet(n, distinct_perms(n, k, Random(seed)), seed)
DP_BOUQUETS = {
    (5, 2, 1): "a4fb626d54a3a216150eb25bdf1f8be0002686f6991fe179a69f7af81d05fda1",
    (9, 3, 2): "66032be60baf4db4860d1decb277a3ccb684da16013ece431d1e75fafcb5cd59",
    (12, 2, 3): "aa6f120f1c81df785822b690f556e97703b7486e4abe97831f2cb560218760c3",
}

# The det8-cli-off benchmark input for seed 1: the benchmark's order pattern,
# rows relabelled and terms split with the seed it draws.
DET8_SIGMAS = [(5, 1, 2, 6, 8, 3, 4, 7), (8, 2, 1, 4, 6, 7, 3, 5), (8, 7, 6, 1, 3, 5, 4, 2)]
DET8_SPLIT_SEED = 1932329884
DET8 = "292a20a89c92874153ea4167b699acbf3cfd8ae8b4eeefa1df1b992224b33b41"


@pytest.mark.parametrize(("n", "k", "seed"), list(BOUQUETS))
def test_det_bouquet_bytes_are_pinned(n, k, seed):
    assert _digest(bouquet_to_obj(seeded_det_bouquet(n, k, seed))) == BOUQUETS[n, k, seed]
    # `smlc gen bouquet` writes the same bytes, then a newline
    run = run_cli(["gen", "bouquet", "--n", str(n), "--k", str(k), "--seed", str(seed)])
    assert (run.code, run.err, run.out[-1]) == (0, "", "\n")
    assert hashlib.sha256(run.out[:-1].encode()).hexdigest() == BOUQUETS[n, k, seed]


@pytest.mark.parametrize("n", range(1, 9))
def test_seeded_det_bouquet_splits_by_its_seed_over_orders_drawn_from_it(n):
    # so the digests above also pin det_bouquet over distinct_perms
    k = min(3, math.factorial(n))
    assert seeded_det_bouquet(n, k, 1) == det_bouquet(n, distinct_perms(n, k, random.Random(1)), 1)


def test_det8_benchmark_bouquet_bytes_are_pinned():
    assert _digest(bouquet_to_obj(det_bouquet(8, DET8_SIGMAS, DET8_SPLIT_SEED))) == DET8


@pytest.mark.parametrize("sigma", list(DETERMINANTS))
def test_det_regular_circuit_bytes_are_pinned(sigma):
    rc = det_regular_circuit(len(sigma), sigma)
    assert _digest(circuit_to_obj(rc.circuit)) == DETERMINANTS[sigma]


@pytest.mark.parametrize(("n", "k", "seed"), list(DP_BOUQUETS))
def test_dp_det_bouquet_bytes_are_pinned(n, k, seed):
    bouquet = dp_det_bouquet(n, distinct_perms(n, k, random.Random(seed)), seed)
    assert _digest(bouquet_to_obj(bouquet)) == DP_BOUQUETS[n, k, seed]


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_table_matches_sign_of_permutation(n):
    signs = _leibniz_signs(n)
    assert len(signs) == math.factorial(n)
    perms = itertools.permutations(range(1, n + 1))
    assert signs == [sign_of_permutation(pi) for pi in perms]
