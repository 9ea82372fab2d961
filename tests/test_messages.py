"""Unit tests for repro.sim.messages (the bit-size model)."""

import pytest

from repro.sim.ids import id_bits
from repro.sim.messages import DEFAULT_RUMOR_BITS, MessageSizes


class TestMessageSizes:
    def test_id_bits_match_space(self):
        sizes = MessageSizes(4096)
        assert sizes.id_bits == id_bits(4096)

    def test_count_bits_cover_n(self):
        sizes = MessageSizes(1000)
        assert 2 ** sizes.count_bits >= 1001

    def test_flag_is_one_bit(self):
        assert MessageSizes(64).flag_bits == 1

    def test_ids_multiplies(self):
        sizes = MessageSizes(256)
        assert sizes.ids(3) == 3 * sizes.id_bits
        assert sizes.ids(0) == 0

    def test_ids_rejects_negative(self):
        with pytest.raises(ValueError):
            MessageSizes(256).ids(-1)

    def test_rumor_default(self):
        assert MessageSizes(256).rumor() == DEFAULT_RUMOR_BITS

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            MessageSizes(0)

    def test_rejects_bad_rumor(self):
        with pytest.raises(ValueError):
            MessageSizes(16, rumor_bits=0)

    def test_id_bits_grow_with_n(self):
        assert MessageSizes(2**16).id_bits > MessageSizes(2**8).id_bits
