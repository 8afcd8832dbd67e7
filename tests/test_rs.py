import itertools
import random

import pytest

from codedpir.linalg import rank_mod
from codedpir.rs import (
    CodeParameterError,
    CorruptCodewordError,
    InsufficientDataError,
    make_code,
)


def interpolate_brute_force(points, values, degree_bound, p):
    """Oracle: find the unique poly of degree < degree_bound through the points."""
    for coeffs in itertools.product(range(p), repeat=degree_bound):
        if all(
            sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p == v
            for x, v in zip(points, values)
        ):
            return lambda x: sum(c * pow(x, e, p) for e, c in enumerate(coeffs)) % p
    raise AssertionError("no interpolating polynomial found")


class TestMakeCode:
    def test_systematic_generator(self):
        code = make_code(5, 3, 7)
        for j in range(3):
            assert [code.generator[j][t] for t in range(3)] == [
                1 if t == j else 0 for t in range(3)
            ]

    def test_repetition(self):
        code = make_code(2, 1, 2)
        assert code.generator.tolist() == [[1, 1]]

    def test_prime_too_small(self):
        with pytest.raises(CodeParameterError):
            make_code(5, 3, 3)

    def test_non_prime(self):
        with pytest.raises(CodeParameterError):
            make_code(4, 2, 9)

    def test_bad_dims(self):
        with pytest.raises(CodeParameterError):
            make_code(3, 4, 7)

    def test_prime_wider_than_int64(self):
        with pytest.raises(CodeParameterError):
            make_code(2, 1, 2**64 - 59)

    def test_one_code_per_parameters(self):
        assert make_code(5, 3, 7) is make_code(5, 3, 7)
        assert make_code(5, 3, 7) is not make_code(5, 3, 11)


class TestEncode:
    def test_zero_message(self):
        assert make_code(5, 3, 7).encode([0, 0, 0]) == [0] * 5

    def test_unit_vector_against_oracle(self):
        # frozen from the brute-force interpolation oracle below
        code = make_code(5, 3, 7)
        poly = interpolate_brute_force([0, 1, 2], [1, 0, 0], 3, 7)
        expected = [poly(t) for t in range(5)]
        assert expected == [1, 0, 0, 1, 3]
        assert code.encode([1, 0, 0]) == expected

    def test_constant_polynomial(self):
        assert make_code(2, 1, 7).encode([5]) == [5, 5]

    def test_wrong_length(self):
        with pytest.raises(CodeParameterError):
            make_code(5, 3, 7).encode([1, 2])

    def test_linearity(self):
        rng = random.Random(3)
        code = make_code(6, 4, 11)
        for _ in range(20):
            m1 = [rng.randrange(11) for _ in range(4)]
            m2 = [rng.randrange(11) for _ in range(4)]
            a = rng.randrange(11)
            combo = [(a * x + y) % 11 for x, y in zip(m1, m2)]
            c1, c2 = code.encode(m1), code.encode(m2)
            assert code.encode(combo) == [(a * x + y) % 11 for x, y in zip(c1, c2)]


class TestErasureDecode:
    @pytest.mark.parametrize("n,k,p", [(5, 3, 7), (4, 2, 5), (6, 4, 7), (8, 5, 11)])
    def test_every_k_subset_round_trip(self, n, k, p):
        rng = random.Random(n * 100 + k)
        code = make_code(n, k, p)
        for _ in range(5):
            message = [rng.randrange(p) for _ in range(k)]
            codeword = code.encode(message)
            for subset in itertools.combinations(range(n), k):
                known = [(t, codeword[t]) for t in subset]
                assert code.erasure_decode(known) == codeword
                assert code.message_of(code.erasure_decode(known)) == message

    def test_full_codeword_identity(self):
        code = make_code(5, 3, 7)
        codeword = code.encode([1, 2, 3])
        assert code.erasure_decode(list(enumerate(codeword))) == codeword

    def test_insufficient_data(self):
        code = make_code(5, 3, 7)
        with pytest.raises(InsufficientDataError):
            code.erasure_decode([(0, 1), (1, 2)])

    def test_corrupt_extra_entry(self):
        code = make_code(5, 3, 7)
        codeword = code.encode([1, 2, 3])
        known = [(0, codeword[0]), (1, codeword[1]), (2, codeword[2]),
                 (3, (codeword[3] + 1) % 7)]
        with pytest.raises(CorruptCodewordError):
            code.erasure_decode(known)

    def test_position_out_of_range(self):
        code = make_code(5, 3, 7)
        with pytest.raises(CodeParameterError):
            code.erasure_decode([(0, 1), (1, 2), (9, 3)])


class TestMessageOf:
    def test_systematic_extraction(self):
        code = make_code(5, 3, 7)
        assert code.message_of(code.encode([4, 5, 6])) == [4, 5, 6]
        assert code.message_of([0] * 5) == [0, 0, 0]
        assert make_code(2, 1, 7).message_of([5, 5]) == [5]


@pytest.mark.parametrize("n,k,p", [(5, 3, 7), (6, 4, 7), (8, 3, 11), (4, 2, 5)])
def test_mds_property(n, k, p):
    # every K x K generator submatrix is invertible
    code = make_code(n, k, p)
    for cols in itertools.combinations(range(n), k):
        sub = [[code.generator[j][t] for t in cols] for j in range(k)]
        assert rank_mod(sub, p) == k
