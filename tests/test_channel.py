import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicesms import (
    ChannelConfig,
    SplitMix64,
    render_channel_log,
    transmit,
)

MASK = (1 << 64) - 1


def ref_next(state):
    """Independent transcription of the published splitmix64 kernel."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def ref_transmit(messages, loss, dup, delay, seed):
    """Replay the documented draw discipline from scratch."""
    state = seed & MASK
    pending, log = [], []
    for pos, text in enumerate(messages):
        state, raw = ref_next(state)
        if (raw >> 11) * 2.0**-53 < loss:
            log.append((pos, "DROPPED", ()))
            continue
        state, raw = ref_next(state)
        copies = 2 if (raw >> 11) * 2.0**-53 < dup else 1
        ticks = []
        for _ in range(copies):
            state, raw = ref_next(state)
            ticks.append(pos + raw % (delay + 1))
        log.append((pos, "DUPLICATED" if copies == 2 else "DELIVERED", tuple(ticks)))
        pending.extend((t, pos, c, text) for c, t in enumerate(ticks))
    pending.sort(key=lambda e: e[:3])
    return [text for *_k, text in pending], log


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        # Canonical first outputs of splitmix64 seeded with 0.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    @given(st.integers(min_value=0, max_value=MASK))
    @settings(max_examples=50)
    def test_matches_reference_kernel(self, seed):
        rng = SplitMix64(seed)
        state = seed
        for _ in range(10):
            state, expected = ref_next(state)
            assert rng.next_u64() == expected

    def test_unit_draws_are_top_53_bits(self):
        a, b = SplitMix64(7), SplitMix64(7)
        for _ in range(100):
            u = a.next_unit()
            assert u == (b.next_u64() >> 11) * 2.0**-53
            assert 0.0 <= u < 1.0

    def test_bounded_draw_is_modulo(self):
        a, b = SplitMix64(9), SplitMix64(9)
        for _ in range(100):
            assert a.next_below(11) == b.next_u64() % 11

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestChannelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_probability": -0.1},
            {"loss_probability": 1.5},
            {"duplication_probability": 2.0},
            {"max_extra_delay": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestTransmit:
    def test_transparent_channel_is_identity(self):
        messages = [f"{i:03d}x" for i in range(50)]
        delivered, log = transmit(messages, ChannelConfig(seed=123))
        assert delivered == messages
        assert log == [(position,) for position in range(50)]

    def test_total_loss(self):
        delivered, log = transmit(["a", "b"], ChannelConfig(loss_probability=1.0))
        assert delivered == []
        assert log == [(), ()]

    def test_total_duplication(self):
        delivered, log = transmit(
            ["a", "b"], ChannelConfig(duplication_probability=1.0)
        )
        assert delivered == ["a", "a", "b", "b"]
        assert all(len(ticks) == 2 for ticks in log)

    def test_same_config_same_result(self):
        messages = [str(i) for i in range(200)]
        cfg = ChannelConfig(0.3, 0.2, 5, seed=42)
        assert transmit(messages, cfg) == transmit(messages, cfg)

    def test_different_seed_different_fate_pattern(self):
        messages = [str(i) for i in range(200)]
        a = transmit(messages, ChannelConfig(0.5, seed=1))[1]
        b = transmit(messages, ChannelConfig(0.5, seed=2))[1]
        assert [len(ticks) for ticks in a] != [len(ticks) for ticks in b]

    def test_content_never_altered(self):
        messages = [f"payload-{i}" for i in range(100)]
        delivered, _ = transmit(messages, ChannelConfig(0.4, 0.3, 7, seed=5))
        assert set(delivered) <= set(messages)

    def test_log_covers_every_input_in_order(self):
        messages = ["m"] * 60
        _, log = transmit(messages, ChannelConfig(0.5, 0.5, 3, seed=8))
        assert len(log) == 60

    def test_conservation_against_log(self):
        messages = [f"{i}" for i in range(300)]
        delivered, log = transmit(messages, ChannelConfig(0.3, 0.25, 9, seed=77))
        expected = sorted(
            messages[position] for position, ticks in enumerate(log) for _ in ticks
        )
        assert sorted(delivered) == expected

    def test_delay_zero_keeps_input_order(self):
        messages = [str(i) for i in range(100)]
        delivered, _ = transmit(messages, ChannelConfig(0.3, 0.3, 0, seed=11))
        positions = [int(t) for t in delivered]
        assert positions == sorted(positions)

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("dup", [0.0, 0.3])
    @pytest.mark.parametrize("delay", [0, 10])
    def test_matches_documented_replay(self, loss, dup, delay):
        messages = [f"{i:04d}" for i in range(150)]
        cfg = ChannelConfig(loss, dup, delay, seed=99)
        delivered, log = transmit(messages, cfg)
        ref_delivered, ref_log = ref_transmit(messages, loss, dup, delay, 99)
        assert delivered == ref_delivered
        assert render_channel_log(log) == "".join(
            f"{pos}\t{outcome}\t{','.join(map(str, ticks))}\n"
            for pos, outcome, ticks in ref_log
        )

    @given(
        st.integers(0, 300),
        st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
        st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
        st.integers(0, 40) | st.just(10**12),
        st.integers(max_value=-1) | st.integers(0, MASK) | st.integers(min_value=1 << 64),
    )
    @settings(max_examples=200)
    def test_matches_documented_replay_property(self, count, loss, dup, delay, seed):
        messages = [str(i) for i in range(count)]
        delivered, log = transmit(messages, ChannelConfig(loss, dup, delay, seed))
        ref_delivered, ref_log = ref_transmit(messages, loss, dup, delay, seed)
        assert delivered == ref_delivered
        assert render_channel_log(log) == "".join(
            f"{pos}\t{outcome}\t{','.join(map(str, ticks))}\n"
            for pos, outcome, ticks in ref_log
        )

    def test_reordering_actually_happens(self):
        messages = [str(i) for i in range(200)]
        delivered, _ = transmit(messages, ChannelConfig(0, 0, 10, seed=3))
        positions = [int(t) for t in delivered]
        assert sorted(positions) == list(range(200))
        assert positions != sorted(positions)


class TestRenderLog:
    def test_format(self):
        log = [(0,), (), (4, 2)]
        assert render_channel_log(log) == (
            "0\tDELIVERED\t0\n1\tDROPPED\t\n2\tDUPLICATED\t4,2\n"
        )

    def test_empty(self):
        assert render_channel_log([]) == ""
