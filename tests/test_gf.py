import pytest
from hypothesis import given, strategies as st

from codedpir import gf
from codedpir.gf import inv_mod


class TestExamples:
    def test_inv(self):
        assert inv_mod(3, 7) == 5
        assert inv_mod(1, 7) == 1
        assert inv_mod(2, 257) == 129

    def test_inv_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(0, 7)
        with pytest.raises(ZeroDivisionError):
            inv_mod(7, 7)


primes = st.sampled_from([2, 7, 257, 65537, 2**31 - 1, 4294967291])


@given(primes, st.data())
def test_inverses(p, data):
    a = data.draw(st.integers(1, p - 1))
    assert a * inv_mod(a, p) % p == 1


@given(primes, st.integers(-(10**12), 10**12))
def test_canonical_closure(p, a):
    # any integer representative of a residue gives its inverse in [0:p)
    if a % p == 0:
        with pytest.raises(ZeroDivisionError):
            inv_mod(a, p)
    else:
        inverse = inv_mod(a, p)
        assert 0 <= inverse < p
        assert inverse == inv_mod(a % p, p)


def test_is_prime():
    assert gf.is_prime(2)
    assert gf.is_prime(257)
    assert gf.is_prime(2**31 - 1)
    assert not gf.is_prime(1)
    assert not gf.is_prime(255)
    assert not gf.is_prime(2**32 + 1)
