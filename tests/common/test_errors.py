"""Exception hierarchy."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    UnknownProtocolError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            ConfigurationError,
            SimulationError,
            ProtocolError,
            UnknownProtocolError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    def test_unknown_protocol_is_a_protocol_error(self):
        assert issubclass(UnknownProtocolError, ProtocolError)
