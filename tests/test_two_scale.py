"""The two-scale differences on X's own face index: the ball B_k(tau, X)
is the positions of one walk of X, read by the near terms as `within`.
Pinned here against the code that sliced the ball as its own complex:
the stabilization records of every built-in statistic, byte for byte, and
_ball_change against that code over random complexes, bit for bit."""
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from rwcomplex.harness import ExperimentConfig, run_stabilization
from rwcomplex.perturbation import (_ball_change, _change,
                                    local_add_one_cost)
from rwcomplex.sampling import (ForcedBits, ModelParams, PairedSample,
                                WeightDistribution)
from rwcomplex.simplices import _sub, unrank_colex
from rwcomplex.statistics import (Statistic, UncoveredFaceError,
                                  isolated_count)
from rwcomplex.topology import ball_k

from test_perturbation import BUILTIN_SPECS, _outcome, local_stat


# ---------------------------------------------------------------------------
# sha256 of json.dumps(run_stabilization(config, k), sort_keys=True),
# recorded before the ball became positions; keys "spec d k seed"

PINNED_SPECS = ("isolated", "nn-alpha:0.8", "cocycle:3", "betti:3",
                "local:isolated:1", "local:cocycle-ratio:2")
PINNED_SIZES = {1: (14, 0.2), 2: (10, 0.15)}     # d: (n, p)


def pinned_cases():
    """(spec, n, d, p, k, seed) of every pinned record."""
    for spec in PINNED_SPECS:
        for d, (n, p) in PINNED_SIZES.items():
            for k in (1, 2, 3):
                for seed in (5, 23):
                    yield spec, n, d, p, k, seed
    yield "nn", 12, 2, 1.0, 3, 5


PINNED = {
    "isolated 1 1 5":
        "732fa0bb94739bbe56736b041125cda5d2c091afe5f979b07f43cd144c4c1bc6",
    "isolated 1 1 23":
        "3eec663eb88767b8e4e6daa33e4af7977b504598db623c487b6ef4869bed28ea",
    "isolated 1 2 5":
        "d96742bf3dbd207940bf611adb9075123a0f23df79a2f62edb25495227fcac9c",
    "isolated 1 2 23":
        "eeb284f7837c61ac4ac70a5be0cfd086795e31b672a8d963a6b173d740e31ef8",
    "isolated 1 3 5":
        "399c458c05460ae07b583a06b5dbc734cec133958c50d2c4ef1a7b58b6c9aac7",
    "isolated 1 3 23":
        "1754489dc71290f1756fa35e0e002fac9dd33bf7c1f96d376795b9041d69b3a4",
    "isolated 2 1 5":
        "57d0de447b7334e965c56765ff173aab877dcca4cfaabb67278e31e02b45556e",
    "isolated 2 1 23":
        "450c0c5eb4ed0c1cfe7fe15fbbfe71f7d0cf1557e5881953f8df47eee3391b41",
    "isolated 2 2 5":
        "7254e94387eae2255d5f1399e14184737fe564cf97c60b9a089ec212391d5bf7",
    "isolated 2 2 23":
        "9059805e440a0772f59bb3000928c6c88c53296a333018eb2ca5eacf79daedfd",
    "isolated 2 3 5":
        "6b29ef08e1cf2fd2297be7993d97fff7eac63fecd1aa83cefae1370e62f2e406",
    "isolated 2 3 23":
        "0b6810ebf750667d07e707f96cd50b786bddda901bb0e1d8060a33454b9c93ac",
    "nn-alpha:0.8 1 1 5":
        "ce720d8f0ebc4a8be3f5fe68a56f3f6e8db94abf0f5192a5128160be72014622",
    "nn-alpha:0.8 1 1 23":
        "cdfd8de3ceb75c8d71d183ba8b80a659286a017bafe960b4fd3a093676725672",
    "nn-alpha:0.8 1 2 5":
        "b9d0d334715101ee43af2032f4912e4a84fd187bf216f47ab75b5d5fcab962ad",
    "nn-alpha:0.8 1 2 23":
        "ca0d696deb8a985aa9473eb16235a513cb0c0aa2ac185b367dec270980fd60f4",
    "nn-alpha:0.8 1 3 5":
        "45cd9386da7ccfd996d247cb5adcb014cc163ad6a170dba4725d98d5b7c95093",
    "nn-alpha:0.8 1 3 23":
        "de672c2a1f0df188b9979747f7d9a8f5e35b0ae0299b9561ea42737dcd5c5c68",
    "nn-alpha:0.8 2 1 5":
        "a81de100b0e89df4c1bf08c7a7a62125ea8479a4521d43f3e1c719afe02c3efd",
    "nn-alpha:0.8 2 1 23":
        "50c19df8f5d91c15686e53a035e75c7d5ff42644f35698598f4ac807470392d6",
    "nn-alpha:0.8 2 2 5":
        "15c5f5a7730e9a85e3bcf34e44a0bc2092bfc554d79a805f2b7c748d4dca349a",
    "nn-alpha:0.8 2 2 23":
        "60e1a64613e97114872e8b5ad979b65d798644da2cbc987f996de38a01ad0bd0",
    "nn-alpha:0.8 2 3 5":
        "091d14f5fea271f1e4ec53476116a725f039670505359bbe97df2e44468271f4",
    "nn-alpha:0.8 2 3 23":
        "83f0c87f14acc0de21d90677fc1b25fc8553d9ef3f5c1f43e0dfaaf0f8984b80",
    "cocycle:3 1 1 5":
        "651c974e027057b19a617521075e750ed9525fdad069e92de7c65cdabb65f1b7",
    "cocycle:3 1 1 23":
        "9a7e5e659a414e10ebfa1ecc0d128989e4310a67f9fe30408024c15d9259adec",
    "cocycle:3 1 2 5":
        "d6f04dd6210eebb937bd6ec65fdff8a4a33a94b00e34187acc02b3624ea024c9",
    "cocycle:3 1 2 23":
        "eea4a9e59f7adbbc953dfcd09f8addb0a528b32f540e46e337d97119bd0dbe51",
    "cocycle:3 1 3 5":
        "fe377c65c508664f5ad6784a876419c4b3c947f071474e5c7fd84fec78ece023",
    "cocycle:3 1 3 23":
        "60c2bd0c1e3586b6c037b7ff6bee3f376df25b32bf4c14e8d71b253e26289d0d",
    "cocycle:3 2 1 5":
        "bf8342095b0d3491cee85de4599dda6db913bb27f731a56aeadb0c89a2636a07",
    "cocycle:3 2 1 23":
        "1d1741bdd089b34a1d74fe35234f0c6d3e04090de3557c14730700df52d998d9",
    "cocycle:3 2 2 5":
        "bf5a01e2a28f3dc32922cd93e6e87c54ccadaf70493ae594d264922951c86eef",
    "cocycle:3 2 2 23":
        "0e1d4fafd7f350c6b8e64fae5946d2453b8fbff14b7fb42001b0438ef711fd06",
    "cocycle:3 2 3 5":
        "af7f7948992ae228dbc2a4cbacb6ef295615cd497e621d2720cffcfdba7b2cdf",
    "cocycle:3 2 3 23":
        "dc043abd38648aa03e3763162f4e641ed102afd3e3c632920a03a91591e3b5b3",
    "betti:3 1 1 5":
        "71167530a670821b41f26a0d54b24daf1be70adb3a0ba06f83d28024d335bd80",
    "betti:3 1 1 23":
        "cff80e389a3fdc9025589587b9c8cb553664ff2e2e52d7cf439511ca8bc6ff8f",
    "betti:3 1 2 5":
        "23d4212963da3573468d4fb4c43b230b981e0e83fb418ad9783b6ecc17ad5aa0",
    "betti:3 1 2 23":
        "86bb7e387da64b0886c7bb66f1702822d47ada04d5929c1d2db2757e17c943fa",
    "betti:3 1 3 5":
        "6fa78cc643d86063002fe01c74d0cc3e2c9bb7d4fa8e0c284a5e191c96e4394d",
    "betti:3 1 3 23":
        "9965b05b7c62552e99de4ddf67623d2e38c839a36c9c11c0c45e52582de5b0cd",
    "betti:3 2 1 5":
        "2eb347fff803f5edbf9e231cec1185d8b8ac4ae7cd359dc23d3fbc4c743c831b",
    "betti:3 2 1 23":
        "1a2cf8a1cb67fe3fb16cf2b151c5c92dbeb087c531bb749a82c96a27d035246d",
    "betti:3 2 2 5":
        "b8467e082c5b15e549dafb729df0ea04daefed824673b4b22949931a6bf65c75",
    "betti:3 2 2 23":
        "920b76b84cff24b655f7cd074b41deb78a26aa9deff2d603c94c5b0ff346060d",
    "betti:3 2 3 5":
        "37bdfac129fb816417d8c71aa95d4090f7f3f5663f809894d99485a85bfea8b5",
    "betti:3 2 3 23":
        "f7597c18ca125b807e3e5024572bf813d7f329430c0d6dd1249cbbc4c40604bf",
    "local:isolated:1 1 1 5":
        "bc2950345cfd6d9320cf3ba1163b3222f43bd2181631c300a22f3df6504678f9",
    "local:isolated:1 1 1 23":
        "1d2c821f4e737d81fbe625e10c5a6cd79be69a0739c486da6ef019d184e639a0",
    "local:isolated:1 1 2 5":
        "e9293cf49f23b2707df977f775247fb7f5c36f4c32ddc6c5b5ec17d1a07891ec",
    "local:isolated:1 1 2 23":
        "890cfaccf415f3179e0df682d3f10df591e96699f5e5dac8d79c8d2ac521e52a",
    "local:isolated:1 1 3 5":
        "48f5a3152bd2a1919ce9ce3565b3f0fa4199a10bb41ef57a8575ccafb248356c",
    "local:isolated:1 1 3 23":
        "f2c5a1780217fea82a02f00ba5e1fec9a699b9a21f65c3ad9a792fec3f50f37e",
    "local:isolated:1 2 1 5":
        "684d1df6a165c7695e4f880a43829a644273b9ddf45d41671eaafabcc520c551",
    "local:isolated:1 2 1 23":
        "ff6c9d735b0a351c6203fac319392b9ecde49370fd5e7a1393ab0709614d8a62",
    "local:isolated:1 2 2 5":
        "e350a5a449a6e735243260c5ab8722dd8ea006600ac1b86fa3948f16afc30881",
    "local:isolated:1 2 2 23":
        "d00007f4c8cca83bfb1e9f369d589b9e6a4460d7d17a17f2489857003012d096",
    "local:isolated:1 2 3 5":
        "b063ad8335194a27be237c5cef7af1e1478e636d50cfeee698ecca112bfb3dba",
    "local:isolated:1 2 3 23":
        "199ab7328493446ee093d343abf59f4cf7af9884b36d440c1f229350cae6d903",
    "local:cocycle-ratio:2 1 1 5":
        "2e8e45e8c33401c7a7446e58b654d623fd2435e19bbb81d2b53e497debd66dd4",
    "local:cocycle-ratio:2 1 1 23":
        "fd33423ade3424436228de69c5225a795ba6f53f61a6991b966da041b1166aec",
    "local:cocycle-ratio:2 1 2 5":
        "cc456ff168f07c64b0940ca9e43b92677754af7f46e0a096ba25785750a56bb6",
    "local:cocycle-ratio:2 1 2 23":
        "82e30b16a554396128d2005b6d8a0d6a753d815e0b6dac53deaa2f2a6848df5c",
    "local:cocycle-ratio:2 1 3 5":
        "8e8334f14c1d5561357ed6dc41e8c2f33a07b79d9a4d126f9631962959f4a81b",
    "local:cocycle-ratio:2 1 3 23":
        "c64c18b4bde25b1b5f4dfffdaaf67a1f053f7cae936fb7d4cfb006e91f89e00e",
    "local:cocycle-ratio:2 2 1 5":
        "67d9940505b0da106cb1a9e49abce97108b5cd4ce846225ec10cd8d36abc0704",
    "local:cocycle-ratio:2 2 1 23":
        "78d70b8882ce7181626c4e377587b229929f4b137616a79eb42a40b92e841c0a",
    "local:cocycle-ratio:2 2 2 5":
        "7360071da3b8d9ea090b590d3d48d9d76c048369924c45a194bf8988a6e6685d",
    "local:cocycle-ratio:2 2 2 23":
        "11a06144c5454b76bc144ab895ed288974cd49b0ec33b6df71f9ba0f115262cd",
    "local:cocycle-ratio:2 2 3 5":
        "2d035b476cbe357a40e17a5e8fe6bfd55d5cd28007b78e8e955876130dc8dbf7",
    "local:cocycle-ratio:2 2 3 23":
        "bfe657572d799d23e31002220b2afa3842d2f83ea1a9878e678b3106c96cb45c",
    "nn 2 3 5":
        "3fb04bd5a77162babd7e142a13518f96d9224abf2d366b2163f29b47463eb0c4",
}


@pytest.mark.parametrize("spec, n, d, p, k, seed", list(pinned_cases()))
def test_stabilization_records_keep_their_bytes(spec, n, d, p, k, seed):
    config = ExperimentConfig(
        ModelParams(n, d, p, WeightDistribution("exponential", 1.0)), spec,
        4, seed)
    record = json.dumps(run_stabilization(config, k), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == \
        PINNED["%s %d %d %d" % (spec, d, k, seed)]


def test_every_pinned_record_is_checked():
    assert sorted(PINNED) == sorted("%s %d %d %d" % (c[0], c[2], c[4], c[5])
                                    for c in pinned_cases())


# ---------------------------------------------------------------------------
# _ball_change against the sliced ball

def sliced_ball_change(f, X, tau_rank, a, b, k):
    """_ball_change as written before: B_k(tau, X) sliced from X as its
    own complex, with its own face index, and _change on that."""
    ball = ball_k(X, unrank_colex(tau_rank, X.d, X.n), k)
    try:
        return _change(f, ball, tau_rank, *((a, b) if k else (None, None)))
    except UncoveredFaceError:
        raise ValueError(
            "nn undefined on B_k(tau, X) at k=%d: the ball leaves a face "
            "uncovered; use a larger k or nn-alpha:<a>" % k) from None


def plain_stat(spec, params):
    """A statistic without near terms: evaluated on the sliced ball."""
    if spec == "plain-isolated":
        return Statistic(spec, lambda X: float(isolated_count(X)), None)
    return local_stat(spec, params)


@settings(derandomize=True, deadline=None, max_examples=40)
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("spec", BUILTIN_SPECS + ("betti:3",
                                                  "plain-isolated"))
@given(data=st.data())
def test_ball_change_matches_the_sliced_ball(spec, d, data):
    # tau present or absent (forced or drawn), both states drawn, k = 0..3;
    # nn at p = 1 also checks the uncovered-face error
    n = data.draw(st.integers(d + 2, 8))
    p = data.draw(st.sampled_from((0.2, 0.5, 0.9, 1.0)))
    params = ModelParams(n, d, p, WeightDistribution("exponential", 1.0))
    f = plain_stat(spec, params)
    tau = data.draw(st.integers(0, math.comb(n, d + 1) - 1))
    bits = data.draw(st.sampled_from(({}, {tau: 0}, {tau: 1})))
    X = PairedSample(params, data.draw(st.integers(0, 1 << 20)),
                     ForcedBits(b=bits)).complex()
    state = st.one_of(st.none(), st.floats(0.0, 3.0))
    a, b, k = data.draw(state), data.draw(state), data.draw(st.integers(0, 3))
    assert _outcome(_ball_change, f, X, tau, a, b, k) == \
        _outcome(sliced_ball_change, f, X, tau, a, b, k)


def test_nn_refuses_an_uncovering_ball_in_the_same_words():
    params = ModelParams(12, 2, 1.0, WeightDistribution("exponential", 1.0))
    f = local_stat("nn", params)
    X = PairedSample(params, 1).complex()
    with pytest.raises(ValueError) as err:
        local_add_one_cost(f, X, 0, 0.5, 1)
    assert str(err.value) == (
        "nn undefined on B_k(tau, X) at k=1: the ball leaves a face "
        "uncovered; use a larger k or nn-alpha:<a>")
    assert math.isfinite(local_add_one_cost(f, X, 0, 0.5, 3))


@settings(derandomize=True, deadline=None, max_examples=30)
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("spec", BUILTIN_SPECS + ("betti:3",))
@given(data=st.data())
def test_near_terms_on_positions_match_the_slice(spec, d, data):
    # any ascending positions, not only a ball's: the near terms read in
    # X's face index are those of the sliced complex, as a multiset (an
    # uncovered face may come at another place in the list), or the same
    # error
    n = data.draw(st.integers(d + 2, 8))
    p = data.draw(st.sampled_from((0.3, 0.7, 1.0)))
    params = ModelParams(n, d, p, WeightDistribution("exponential", 1.0))
    f = local_stat(spec, params)
    tau = data.draw(st.integers(0, math.comb(n, d + 1) - 1))
    bits = data.draw(st.sampled_from(({}, {tau: 0}, {tau: 1})))
    X = PairedSample(params, data.draw(st.integers(0, 1 << 20)),
                     ForcedBits(b=bits)).complex()
    within = sorted(data.draw(st.sets(st.integers(0, X.num_present - 1)))
                    if X.num_present else [])
    w = data.draw(st.one_of(st.none(), st.floats(0.0, 3.0)))

    def terms(Y, positions):
        try:
            return sorted(float(t).hex()
                          for t in f.near_terms(Y, tau, w, positions))
        except ValueError as exc:
            return "ValueError: %s" % exc
    assert terms(X, within) == terms(_sub(X, within), None)
