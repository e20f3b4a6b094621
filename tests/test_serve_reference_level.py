"""A link's ``reference_level``: validation, and one answer per link.

A reference-SNR link ``{"snr_db": s, "reference_level": L}`` is the same
link as ``{"snr_db": s + P(31) - P(L)}`` (SNR tracks output power
dB-for-dB, the paper's Table IV convention), so every cache tier — the
policy lookup, the bin-keyed LRU, the fleet endpoint — must answer the
two alike, and the uncached solve must agree at bin centres.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimization import TuningGrid
from repro.errors import InfeasibleError, ProtocolError
from repro.radio import cc2420
from repro.serve import Client, Oracle, OracleService, parse_recommend

GRID = TuningGrid(
    ptx_levels=(3, 15, 23, 27, 31),
    payload_values_bytes=(20, 40, 65, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1,),
)

#: Feasible, and binding, at the level-31 SNRs the tests below use.
CONSTRAINTS = [{"objective": "loss", "max": 0.2}]


def level_31_equivalent(snr_db, reference_level):
    """The same link specified at PA level 31 (same float expression)."""
    return snr_db + (
        cc2420.output_power_dbm(31) - cc2420.output_power_dbm(reference_level)
    )


def make_client(policy):
    oracle = Oracle(grid=GRID, lru_capacity=16, policy=policy)
    oracle.precompute_policies(("energy",))
    return Client(OracleService(oracle, workers=1))


@pytest.fixture(scope="module")
def policy_client():
    client = make_client(policy=True)
    yield client
    client.service.close()


@pytest.fixture(scope="module")
def exact_client():
    client = make_client(policy=False)
    yield client
    client.service.close()


def recommend(client, link, constraints=()):
    return client.recommend({"link": link, "constraints": list(constraints)})


def uncached(client, link, constraints=()):
    request = parse_recommend(
        {"link": link, "constraints": list(constraints)}
    )
    return client.service.oracle.uncached_recommend(request)


class TestReferenceLevelOnThePolicyOracle:
    """``s`` at level 23 is ``s + 3`` at level 31 (a bin centre here)."""

    @pytest.mark.parametrize("snr_db", [3.0, 0.5, 9.25])
    def test_default_bounds_policy_answer(self, policy_client, snr_db):
        link = {"snr_db": snr_db, "reference_level": 23}
        got = recommend(policy_client, link)
        want = recommend(policy_client, {"snr_db": snr_db + 3.0})
        assert got["cache"] == want["cache"] == "policy"
        assert got["recommendation"] == want["recommendation"]
        exact = uncached(policy_client, link)
        assert got["recommendation"]["config"] == exact.config.as_dict()
        assert got["recommendation"]["u_eng_uj_per_bit"] == (
            exact.u_eng_uj_per_bit
        )

    @pytest.mark.parametrize("snr_db", [3.0, 0.5, 9.25])
    def test_constrained_answer_shares_the_level_31_bin(
        self, policy_client, snr_db
    ):
        link = {"snr_db": snr_db, "reference_level": 23}
        want = recommend(policy_client, {"snr_db": snr_db + 3.0}, CONSTRAINTS)
        got = recommend(policy_client, link, CONSTRAINTS)
        # The level-31 request built the bin's staircases.
        assert got["cache"] == "policy"
        assert got["recommendation"] == want["recommendation"]
        exact = uncached(policy_client, link, CONSTRAINTS)
        assert got["recommendation"]["config"] == exact.config.as_dict()

    def test_fleet_answers_like_the_level_31_links(self, policy_client):
        snrs = (3.0, 0.5, 9.25)
        got = policy_client.recommend_fleet(
            {"links": [{"snr_db": s, "reference_level": 23} for s in snrs]}
        )
        want = policy_client.recommend_fleet(
            {"links": [{"snr_db": s + 3.0} for s in snrs]}
        )
        assert got["results"] == want["results"]
        assert got["cache_tiers"] == {"policy": len(snrs)}

    def test_paper_table_iv_link_on_the_serve_default_grid(self):
        # Table IV's link: 3 dB at PA level 23 is 6 dB at level 31. The
        # policy tier and the fleet endpoint must give the uncached answer
        # (PA 27, 40-byte payload), not the 3 dB weaker link's (PA 31, 32).
        oracle = Oracle(
            grid=TuningGrid(payload_values_bytes=tuple(range(2, 115, 2))),
            policy=True,
        )
        with OracleService(oracle, workers=1) as service:
            client = Client(service)
            link = {"snr_db": 3.0, "reference_level": 23}
            config = recommend(client, link)["recommendation"]["config"]
            fleet = client.recommend_fleet({"links": [link]})
        assert (config["ptx_level"], config["payload_bytes"]) == (27, 40)
        assert fleet["results"][0]["recommendation"]["config"] == config
        assert config == uncached(client, link).config.as_dict()


#: Field values a client may wrongly send, beside the valid numbers.
JUNK = st.sampled_from([None, True, False, "6", "", 10**40, -(10**40)])
FIELDS = ("distance_m", "snr_db", "reference_level")
LINKS = st.one_of(
    # Valid reference-SNR links, on and off the policy axis.
    st.fixed_dictionaries(
        {"snr_db": st.floats(-15.0, 45.0)},
        optional={"reference_level": st.sampled_from(cc2420.PA_LEVELS)},
    ),
    st.fixed_dictionaries({"distance_m": st.floats(0.5, 60.0)}),
    # Anything else: missing or doubled fields, non-PA levels, junk.
    st.dictionaries(
        st.sampled_from(FIELDS),
        st.one_of(st.integers(-50, 80), st.floats(-30.0, 60.0), JUNK),
    ),
)


def outcome(call, payload):
    """An answer, or the typed error the HTTP layer maps to 400/409."""
    try:
        return call(payload)
    except (ProtocolError, InfeasibleError) as exc:
        return type(exc)


def configs(answer):
    """The recommended configurations (or error types) of an outcome."""
    if isinstance(answer, type):
        return answer
    return [
        row["recommendation"]["config"]
        if "recommendation" in row
        else row["error"]["type"]
        for row in answer.get("results", [answer])
    ]


class TestLinkObjectProperty:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        link=LINKS,
        constrained=st.booleans(),
        policy=st.booleans(),
        fleet=st.booleans(),
    )
    def test_every_link_gets_an_answer_or_a_typed_error(
        self, policy_client, exact_client, link, constrained, policy, fleet
    ):
        client = policy_client if policy else exact_client
        constraints = CONSTRAINTS if constrained else []

        def ask(link):
            if fleet:
                payload = {"links": [link, link], "constraints": constraints}
                return outcome(client.recommend_fleet, payload)
            payload = {"link": link, "constraints": constraints}
            return outcome(client.recommend, payload)

        got = ask(link)
        if got is ProtocolError or "snr_db" not in link:
            return
        level = link.get("reference_level", 31)
        assert level in cc2420.PA_LEVELS  # anything else was a 400
        shifted = level_31_equivalent(link["snr_db"], level)
        assert configs(got) == configs(ask({"snr_db": shifted}))
