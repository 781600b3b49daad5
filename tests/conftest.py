import pytest

from eccs.curve import CurveParams, get_curve

# Non-registry curve of the one accepted shape: y^2 = x^3 + 3 over F_1063
# (1063 % 4 == 3), prime order 1129, with beta = 343 (the smaller
# nontrivial cube root of 1 mod 1063) and lam = 741, its one pairing.
# Its trace 1064 - 1129 = -65 = -floor(2 * sqrt(1063)) sits on the Hasse
# limit.
ALT_ID = 0x70
ALT_P = 1063
ALT_B = 3
ALT_N = 1129
ALT_G1 = (1, 2)
ALT_G2 = (335, 308)
ALT_BETA = 343
ALT_LAM = 741


@pytest.fixture(scope="session")
def toy():
    return get_curve("toy")


@pytest.fixture(scope="session")
def secp():
    return get_curve("secp256k1")


def alt_curve():
    """A new CurveParams for the alt curve, with every proof."""
    return CurveParams(
        ALT_ID, "p1063-b3", ALT_P, ALT_B, ALT_N, ALT_G1, ALT_G2, ALT_BETA, ALT_LAM
    )


@pytest.fixture(scope="session")
def alt():
    return alt_curve()
