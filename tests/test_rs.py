import itertools
import random

import numpy as np
import pytest

from codedpir.linalg import matmul_mod, rank_mod
from codedpir.rs import CodeParameterError, MatrixCache, make_code


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


def encode(code, message):
    """The codeword of a message: message @ generator mod p."""
    return matmul_mod(np.array(message, dtype=np.int64), code.generator, code.prime).tolist()


class TestEncode:
    def test_zero_message(self):
        assert encode(make_code(5, 3, 7), [0, 0, 0]) == [0] * 5

    def test_unit_vector_against_oracle(self):
        # frozen from the brute-force interpolation oracle below
        code = make_code(5, 3, 7)
        poly = interpolate_brute_force([0, 1, 2], [1, 0, 0], 3, 7)
        expected = [poly(t) for t in range(5)]
        assert expected == [1, 0, 0, 1, 3]
        assert encode(code, [1, 0, 0]) == expected

    def test_constant_polynomial(self):
        assert encode(make_code(2, 1, 7), [5]) == [5, 5]

    def test_linearity(self):
        rng = random.Random(3)
        code = make_code(6, 4, 11)
        for _ in range(20):
            m1 = [rng.randrange(11) for _ in range(4)]
            m2 = [rng.randrange(11) for _ in range(4)]
            a = rng.randrange(11)
            combo = [(a * x + y) % 11 for x, y in zip(m1, m2)]
            c1, c2 = encode(code, m1), encode(code, m2)
            assert encode(code, combo) == [(a * x + y) % 11 for x, y in zip(c1, c2)]


class TestErasureDecode:
    """Any K symbols of a codeword give it back through their recovery matrix."""

    @pytest.mark.parametrize("n,k,p", [
        (5, 3, 7), (4, 2, 5), (6, 4, 7), (8, 5, 11),
        (6, 4, 3037000493),  # the largest p whose residue products int64 holds
        (6, 4, 4294967291),  # beyond it, Python ints
    ])
    def test_every_k_subset_round_trip(self, n, k, p):
        rng = random.Random(n * 100 + k)
        code = make_code(n, k, p)
        for _ in range(5):
            codeword = encode(code, [rng.randrange(p) for _ in range(k)])
            for subset in itertools.combinations(range(n), k):
                known = np.array([codeword[t] for t in subset], dtype=np.int64)
                assert matmul_mod(known, code.recovery_matrix(subset), p).tolist() == codeword

    def test_full_codeword_identity(self):
        # interpolating through K symbols reproduces those K symbols
        code = make_code(5, 3, 7)
        for subset in itertools.combinations(range(5), 3):
            assert code.recovery_matrix(subset)[:, list(subset)].tolist() == np.eye(3).tolist()


class TestRecoveryMatrix:
    def test_rows_are_lagrange_bases(self):
        # row j: the polynomial of degree < K that is 1 at subset[j], 0 at the rest
        code = make_code(5, 3, 7)
        for subset in itertools.combinations(range(5), 3):
            for j in range(3):
                unit = [1 if i == j else 0 for i in range(3)]
                poly = interpolate_brute_force(subset, unit, 3, 7)
                assert code.recovery_matrix(subset)[j].tolist() == [poly(t) for t in range(5)]

    def test_cached_and_read_only(self):
        code = make_code(6, 4, 7)
        recovery = code.recovery_matrix((0, 2, 3, 5))
        assert code.recovery_matrix((0, 2, 3, 5)) is recovery
        assert not recovery.flags.writeable


class TestResidualMatrix:
    def test_zero_rows_at_positions(self):
        code = make_code(5, 3, 7)
        for subset in itertools.combinations(range(5), 3):
            residual = code.residual_matrix(subset)
            assert residual.shape == (5, 5)
            assert not residual[list(subset)].any()

    def test_every_codeword_maps_to_zero(self):
        code = make_code(5, 3, 7)
        messages = np.array(list(itertools.product(range(7), repeat=3)), dtype=np.int64)
        codewords = matmul_mod(messages, code.generator, 7)
        for subset in itertools.combinations(range(5), 3):
            assert not matmul_mod(codewords, code.residual_matrix(subset).T, 7).any()

    def test_strips_the_interpolation(self):
        # X @ y = y minus the polynomial of degree < K through y at the subset
        code = make_code(5, 3, 7)
        rng = random.Random(5)
        for subset in itertools.combinations(range(5), 3):
            residual = code.residual_matrix(subset)
            for _ in range(3):
                word = [rng.randrange(7) for _ in range(5)]
                poly = interpolate_brute_force(subset, [word[t] for t in subset], 3, 7)
                expected = [(word[t] - poly(t)) % 7 for t in range(5)]
                assert matmul_mod(residual, np.array(word, dtype=np.int64), 7).tolist() == expected


@pytest.mark.parametrize("n,k,p", [(5, 3, 7), (6, 4, 7), (8, 3, 11), (4, 2, 5)])
def test_mds_property(n, k, p):
    # every K x K generator submatrix is invertible
    code = make_code(n, k, p)
    for cols in itertools.combinations(range(n), k):
        sub = [[code.generator[j][t] for t in cols] for j in range(k)]
        assert rank_mod(sub, p) == k


class TestMatrixCache:
    def test_least_recently_used_goes_first(self):
        cache = MatrixCache(3 * 8)
        for key in range(3):
            cache.put((key,), np.full(1, key))
        assert cache.get((0,))[0] == 0  # now the most recent
        cache.put((3,), np.full(1, 3))
        assert list(cache) == [(2,), (0,), (3,)]
        assert cache.get((1,)) is None
        assert cache.nbytes == 24

    def test_one_matrix_over_the_bound_stays(self):
        cache = MatrixCache(8)
        cache.put((0,), np.zeros(1))
        cache.put((1,), np.zeros(4))
        assert list(cache) == [(1,)] and cache.nbytes == 32
