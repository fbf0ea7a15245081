"""Reduction outputs pinned byte for byte.

One SHA-256 per case over `dumps(transcript.to_obj())` followed by
`dumps(circuit_to_obj(single.circuit))`, for `reduce_to_single` on
`seeded_det_bouquet(n, k, seed)` with the same seed.
A change that alters any transcript or output circuit fails the case it
touches; the digests are fixed and are not regenerated by a change.  The
benchmark's three `--smoke` determinism digests are pinned here too.
"""

import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from smlc.generators import seeded_det_bouquet
from smlc.pipeline import reduce_to_single
from smlc.serialize import circuit_to_obj, dumps

# (n, k, seed, verify) -> digest
GOLDEN = {
    (3, 2, 1, "off"): "8e9b9d36bb813cefd712cdb43067b8a9fa33ed60356d35cc0915594e3306902d",
    (3, 2, 7, "off"): "66373274947341bd158bf5d086c88fafcc2787aa27be009c5a273c0ea7e31221",
    (3, 3, 1, "off"): "66338d68cdf5d026c56d0fb31337771ac7879853cc46fcc2aaa617b4fab9e18d",
    (3, 3, 7, "off"): "ba2fc0e521eba54ae479f878d2677b82a7d4c08b64a8ded0685f0c5bb6746cfd",
    (4, 2, 1, "off"): "8ec230b01e7c0a0e49c7ce4208fff67ee24b28dd121aa451995d8fc17bb5284d",
    (4, 2, 7, "off"): "fcb220cba5c375d5ad847d16456ebce3f27925a12ebe8a3f6369f178808c78f0",
    (4, 3, 1, "off"): "43467ae5c31ed970bff385455a2e11c9b99c02104578ae1b7ebc1726ab2cb794",
    (4, 3, 7, "off"): "7bd8c2780862e147f8e26c9db573a5c48ce6ab8db7dfd846f4fe6d320e806510",
    (5, 2, 1, "off"): "26093d6e968afd425b066ad46ff50efd69676a9ea19bc65a9f8356e87f585998",
    (5, 2, 7, "off"): "3c80e56f861178cf4c277b8c61e9d380fba4a2d45fd5352cfc425b7e8b5a2d77",
    (5, 3, 1, "off"): "617d966cbeaebb998c7527a734225d2c0c53cb1845ebd8e331d5b6b36702a7f1",
    (5, 3, 7, "off"): "c350d072be7e20362c1769d4bb5eded92fdd5af2cb3a88a2249f34c8a3102e9d",
    (6, 2, 1, "off"): "30a44df620b7197a7273673683da557c3b50fa3d5953aa4896454a459f903d6a",
    (6, 2, 7, "off"): "c193a1c44ce4346b0b5df825e09dfd56fd3105bdd29a13e6ea39f5f91b7b7867",
    (6, 3, 1, "off"): "ee86619911498b3790382fe1e5c9074d8afac9b20db8843292bb54d6da985649",
    (6, 3, 7, "off"): "b7ab366fcd55ea7a536a7de5ad217101b7169ea39c8d5e88291af734fcd895d7",
    (3, 2, 1, "exact"): "8bf6ada322ef9937cd0465ba38678328a1cccafde505a1ad71debb00e8bd52a5",
    (3, 2, 7, "exact"): "4b020399e39e5d7dc9fc2101e5dad40b7b41da2a504ec356c59b8ede373f18fe",
    (3, 3, 1, "exact"): "cfb862ebb39df690b816e39deae7b5caf2234e1c09e39c6b2b9f891aba34c61e",
    (3, 3, 7, "exact"): "3aaeba916bd558f141f3935c4f9f3db8ccf010439556ea35b7465724f1a0fe90",
    (4, 2, 1, "exact"): "de4cfa4835e908c4c0dd40f58c26d5d4d3dfce100637b1bb009e6f1816f6a77a",
    (4, 2, 7, "exact"): "406d7afa672af242c68e53dc81907881d3d4e808cbbc7c5304b75153713dd75e",
    (4, 3, 1, "exact"): "b7d7e80472e455e34d830090d2feb63455dfc35eb6387253245e55eee2b01225",
    (4, 3, 7, "exact"): "5ddb60dadc86fd3b85c202e019eb3dd3b5bd8f1d8f46cd24cfdcd286d6faa455",
    (5, 2, 1, "exact"): "1821f1203ed28868e645af688d9f8e00c63f8e64ddd269d730f61bb5080e414a",
    (5, 2, 7, "exact"): "a0bd5bb7158f2ea7fe4515cc40133ed156c595d3e2430724adf1db05acb4ff87",
    (5, 3, 1, "exact"): "8ae2183ac3980a3be57cd922321d360a911cc74fe1a5d801507cb3c46a071fff",
    (5, 3, 7, "exact"): "a4ddb7553729db2656d2d5bc287a03864ef513901f8198e1e0268efa1e86c3e2",
    (6, 2, 1, "exact"): "c89f14568fc02f3580c0bd47d0a4992bf200b716a0fb7a96300c8bb9fb2383b4",
    (6, 2, 7, "exact"): "9f82f879fcb09eebcddc8f6024cbcf907a1eb0255c33d87a097d2865bed164fa",
    (6, 3, 1, "exact"): "af94855bf6e5a23cd83f497763acb13fe234e6e8d51b4f7fc05611ebff7ca112",
    (6, 3, 7, "exact"): "edaf385173b78d95df3b50ddb7c5932213cccfe69a033ae7e615ed80209d0983",
    (3, 2, 1, "random"): "9b33df138d160fbde5492f3bf43df5973fa18d75e889eb0a322981f6a3d60fc3",
    (3, 2, 7, "random"): "546372c16db0a3b57e9a766dcc4bef01dd5a7bc6b921316f60ac395f7ff77164",
    (3, 3, 1, "random"): "84c4b18441e63f0cec84235c58d861d038fc418048b679db716fe9b7ca55943f",
    (3, 3, 7, "random"): "c1f5b4ea5ed4f8efc426068973df6717fc29302cc023cfdba4d3d8e27589bc32",
    (4, 2, 1, "random"): "b0e311e2c90cecedfb465b746051c5ab74d9f6c7ad161463c245e4796491f96d",
    (4, 2, 7, "random"): "2c401780ee297c81b473f77967958bbc23dda1194554f23ef015618ceefddb2d",
    (4, 3, 1, "random"): "79472f5a929118b36e79b20d7211c71411f44316a7bba4656b1fcaeb12b7c774",
    (4, 3, 7, "random"): "a2c3a2c1c638ee9f46af2bc601d94f985a222897e9ee7f0c5033121f8b55d694",
    (5, 2, 1, "random"): "821a81aaf030017d5422c883b74825dc45ee5fa9131afb5507b045279422d0dc",
    (5, 2, 7, "random"): "f1d3421244091b29e736f42abeeb3772a3e399e4eb3aa3c21ecc3ddf05d0de83",
    (5, 3, 1, "random"): "999cb2e5966a39c11fd8bb56df9db2a9f608f7260fdc5b41f11513a558eae12b",
    (5, 3, 7, "random"): "9ca9f795bf782f713f79a855e3ec0726974c9f75b2f26e5ed7324fa8486f2162",
    (6, 2, 1, "random"): "10346a64b50e96d5e703e282e3c9e82bc6b86eda729b4d29e3e096d346631923",
    (6, 2, 7, "random"): "4fc879f2023f294459af6a81c9aee570c2fcdb47b40cca459770fcf3e9067df2",
    (6, 3, 1, "random"): "c19a17b743173868f7ddac69980c7ad69546a61ab800c2d5fb213a33ed2e7a58",
    (6, 3, 7, "random"): "dc1663697f4c4174394243e313ef02bfed0d6f7d23c0923ac3f4b4dddcfa295d",
    (7, 3, 1, "random"): "660c9c3768285c6cf0a84484fded302f50db2968ecef57c685ab4e31bf51aac2",
}


@pytest.mark.parametrize(("n", "k", "seed", "verify"), list(GOLDEN))
def test_reduction_bytes_are_pinned(n, k, seed, verify):
    bouquet = seeded_det_bouquet(n, k, seed)
    single, transcript = reduce_to_single(bouquet, verify=verify, seed=seed)
    blob = dumps(transcript.to_obj()) + dumps(circuit_to_obj(single.circuit))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[n, k, seed, verify]


# `perfbench/run.py --workload all --seed 1 --seconds 1 --smoke`, one per workload in run order
SMOKE_DIGESTS = [
    "f0fd71b1e5859377126e15e3e4ab031d3109755f1fd84d578bffc254b279358f",  # det8-cli-off
    "2e2d83123311279f54b4255f8ccf5a62295a21ac22c9fde3f9eafc26e8572a3d",  # det7-random
    "b44c2a57602f2f61bdae0d35a48dd7b3000a7c559bdce55116ecc090b0eb1154",  # small-exact
]


def test_benchmark_smoke_digests_are_pinned(tmp_path):
    # on a copy, so the smoke run's records do not replace a real seed-1 run's in perfbench/out/
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for script in (root / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    args = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "1", "--smoke"]
    run = subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert re.findall(r"^ +digest +sha256:(\w+)$", run.stdout, re.MULTILINE) == SMOKE_DIGESTS
