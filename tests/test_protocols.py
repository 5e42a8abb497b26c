"""Built-in protocol bundles and the leader-election fixture."""
import pytest

import helpers
from stabiliq import kernel, protocols
from stabiliq.dsl import parse_protocol
from stabiliq.kernel import ModelError
from stabiliq.specs import DIVERGENCE_ALLOWED, DIVERGENCE_FORBIDDEN


def test_builder_validation():
    with pytest.raises(ModelError):
        protocols.make_cm((7,))
    with pytest.raises(ModelError):
        protocols.make_cm((1, 2, 2))
    with pytest.raises(ModelError):
        protocols.make_alternator(2)
    with pytest.raises(ModelError):
        protocols.make_pif(2)
    with pytest.raises(ModelError):
        protocols.make_le(3)


def test_universe_sizes():
    assert protocols.make_cm((1, 2)).program.universe_size == 4
    assert protocols.make_cm((2, 1, 3, 4)).program.universe_size == 16
    assert protocols.make_alternator(5).program.universe_size == 32
    # the wave chain: two-valued ends, three-valued middles
    assert protocols.make_pif(3).program.universe_size == 12
    assert protocols.make_pif(4).program.universe_size == 36
    assert protocols.make_pif(5).program.universe_size == 108
    assert protocols.make_abp().program.universe_size == 36
    assert protocols.make_le(4).signature.size == 256


def test_bundle_shapes():
    for name, bundle in (("cm", protocols.make_cm((1, 2, 3))),
                         ("la", protocols.make_alternator(3)),
                         ("pif", protocols.make_pif(3)),
                         ("abp", protocols.make_abp())):
        assert bundle.name == name
        assert bundle.default_invariant in bundle.invariants
        assert "true" in bundle.invariants
        assert bundle.ideal_spec is not None
        assert bundle.spec is bundle.ideal_spec
    assert protocols.make_cm((1, 2)).strict_spec is None
    assert protocols.make_alternator(3).strict_spec is None
    assert protocols.make_pif(3).strict_spec is not None
    assert protocols.make_abp().strict_spec is not None


def test_spec_policies():
    assert protocols.make_cm((1, 2)).ideal_spec.stutter_policy == \
        DIVERGENCE_ALLOWED
    assert protocols.make_pif(3).ideal_spec.stutter_policy == \
        DIVERGENCE_FORBIDDEN
    assert protocols.make_abp().strict_spec.stutter_policy == \
        DIVERGENCE_FORBIDDEN


def _assert_moves(program, reference_moves):
    """Every state's (position, action, successor) moves equal the ones
    reference_moves restates by hand over the state's value tuple."""
    for s in program.signature.states():
        want = sorted(reference_moves(helpers.state_values(s)))
        got = sorted((pos, name, helpers.state_values(
            kernel.apply(program, s, pos, name)))
            for pos, name in kernel.enabled_actions(program, s))
        assert got == want, s.text()


def test_alternator_agrees_with_the_reference_moves():
    for n in (3, 4, 5, 6):
        _assert_moves(protocols.make_alternator(n).program,
                      helpers.la_reference_moves)


def test_conflict_manager_agrees_with_the_reference_moves():
    for ids in ((2, 1, 3, 4), (1, 2)):
        _assert_moves(protocols.make_cm(ids).program,
                      helpers.cm_reference_moves)


def test_wave_chain_agrees_with_the_reference_moves():
    for n in (3, 4):
        _assert_moves(protocols.make_pif(n).program,
                      helpers.pif_reference_moves)


def test_handshake_agrees_with_the_reference_moves():
    _assert_moves(protocols.make_abp().program, helpers.abp_reference_moves)


def test_handshake_timeout_requires_silent_channels():
    program = protocols.make_abp().program
    for s in program.signature.states():
        enabled = {name for _, name in kernel.enabled_actions(program, s)}
        channels_empty = (s.value(1, "chpq") == "empty"
                          and s.value(2, "chqp") == "empty")
        if "timeout" in enabled:
            assert channels_empty, s.text()
        if channels_empty:
            assert "timeout" in enabled, s.text()


def test_leader_election_fixture():
    fx = protocols.make_le(4)
    assert len(fx.allowed) + len(fx.disallowed) == fx.signature.size
    assert len(fx.allowed) == 48
    s1, s2 = fx.forced
    assert s1.text() == ("contend.p1=true leader.p1=true "
                         "contend.p2=false leader.p2=false "
                         "contend.p3=false leader.p3=false "
                         "contend.p4=false leader.p4=false")
    assert s2.text() == ("contend.p1=false leader.p1=false "
                         "contend.p2=false leader.p2=false "
                         "contend.p3=false leader.p3=false "
                         "contend.p4=true leader.p4=true")
    assert s1 in fx.allowed and s2 in fx.allowed
    middle = fx.forced_state([False, True, False, False])
    assert middle in fx.allowed
    with pytest.raises(ModelError):
        fx.forced_state([True, True, False, False])
    with pytest.raises(ModelError):
        fx.forced_state([True, False, False])


def test_registry_and_samples():
    assert set(protocols.BUILDERS) == {"cm", "la", "pif", "abp"}
    for filename in ("cm.gcp", "alternator.gcp", "pif.gcp", "abp.gcp"):
        text = protocols.sample_source(filename)
        result = parse_protocol(text, n=4) if "abp" not in filename \
            else parse_protocol(text)
        assert result.ok, (filename, result.diagnostics)
    with pytest.raises(ModelError, match="nosuch.gcp is missing"):
        protocols.sample_source("nosuch.gcp")
