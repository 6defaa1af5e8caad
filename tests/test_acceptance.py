"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Expected values marked as frozen were computed by an independent
hand-built enumeration before this package was implemented.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from pasynch import (
    acceptance_probability,
    b_half,
    b_one,
    bounded_value_search,
    build_witness_prefix,
    certificate_check,
    check_p1,
    check_p2,
    dollar_absorption_check,
    half_bound_check,
    lift,
    matrix_oracle,
    norm_trace,
    outcome,
    parse_pa,
    serialize_pa,
    step,
    twin,
    witness_schedule_search,
)
from pasynch.paformat import read_trace_csv, write_trace_csv
from helpers import (
    random_pa,
    random_value1_instance,
    random_word,
    reference_schedule,
    reference_search,
)

import io

HALF = Fraction(1, 2)


@contextmanager
def criterion(num, description, limit=None):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {limit}s limit")
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description} ({elapsed:.2f}s)")


def instances_200():
    rng = random.Random(0xACCE)
    return [random_value1_instance(rng) for _ in range(200)]


def test_criterion_01_construction_well_formedness():
    with criterion(1, "lift/twin outputs validate, twin rows exactly stochastic",
                   limit=10):
        for b in instances_200():
            a = lift(b)
            c = twin(a)
            assert a.pa.validate().ok
            assert c.pa.validate().ok
            for row in c.pa.delta.values():
                assert row.total() == 1


def test_criterion_02_pair_halving_exact():
    with criterion(2, "pair halving holds exactly at every step (200 x 5 words)",
                   limit=30):
        rng = random.Random(0xBEEF)
        for b in instances_200():
            a = lift(b)
            c = twin(a)
            for _ in range(5):
                w = random_word(rng, b.pa.alphabet, 15)
                assert check_p2(a, c, w).ok


def test_criterion_03_reset_replay_exact():
    with criterion(3, "reset replay holds exactly (200 random triples)", limit=30):
        rng = random.Random(0xCAFE)
        for _ in range(200):
            b = random_value1_instance(rng)
            c = twin(lift(b))
            v1 = random_word(rng, c.pa.alphabet, 10)
            v2 = random_word(rng, c.pa.alphabet, 10)
            assert check_p1(c, v1, v2).ok


def test_criterion_04_acceptance_transfer():
    with criterion(4, "acceptance transfers through the lift, exactly"):
        for b in (b_one(), b_half()):
            a = lift(b)
            source_letters = b.pa.alphabet
            for n in range(7):
                for w in product(source_letters, repeat=n):
                    assert acceptance_probability(a.pa, w + (a.dollar,)) == \
                        acceptance_probability(b.pa, w)
            for n in range(7):
                for u in product(a.pa.alphabet, repeat=n):
                    if u and u[-1] == a.dollar:
                        continue
                    assert acceptance_probability(a.pa, u) == 0
        rng = random.Random(0xD00D)
        for _ in range(100):
            b = random_value1_instance(rng)
            a = lift(b)
            w = random_word(rng, b.pa.alphabet, 8)
            assert acceptance_probability(a.pa, w + (a.dollar,)) == \
                acceptance_probability(b.pa, w)
            u = random_word(rng, a.pa.alphabet, 7)
            if u and u[-1] == a.dollar:
                u = u + (b.pa.alphabet[0],)
            assert acceptance_probability(a.pa, u) == 0


def test_criterion_05_witness_pipeline():
    with criterion(5, "witness schedule and certificate succeed on the chain fixture",
                   limit=5):
        b = b_one()
        result = witness_schedule_search(b, 8, 8)
        assert result.ok
        a = lift(b)
        c = twin(a)
        schedule = [u + (a.dollar,) for u in result.words]
        cert = certificate_check(c, schedule)
        assert cert.ok
        assert cert.norms == (Fraction(1),) * 8
        for i in range(1, 9):
            assert cert.thresholds[i - 1] == 1 - Fraction(1, 2 ** i)
            expected_pos = (i - 1) + sum(len(w) for w in schedule[:i])
            assert cert.checkpoints[i - 1] == expected_pos
        _, checkpoints = build_witness_prefix(c, schedule)
        assert checkpoints == cert.checkpoints


def test_criterion_06_half_bound():
    with criterion(6, "norms never exceed 1/2 without the commit letter "
                      "(100 automata x 10 words)", limit=30):
        rng = random.Random(0xFACE)
        for _ in range(100):
            b = random_value1_instance(rng)
            c = twin(lift(b))
            letters = tuple(x for x in c.pa.alphabet if x != c.dollar)
            for _ in range(10):
                w = random_word(rng, letters, 12)
                assert half_bound_check(c, w).ok
                for entry in norm_trace(c.pa, w):
                    assert entry.norm <= HALF


def test_criterion_07_dollar_absorption():
    with criterion(7, "commit letter pins the failure pair at exactly 1/2 each "
                      "(100 automata, horizons to 10^9)"):
        rng = random.Random(0xF00D)
        for _ in range(100):
            b = random_value1_instance(rng)
            a = lift(b)
            c = twin(a)
            prefix = random_word(rng, b.pa.alphabet, 6) + (a.dollar,)
            for horizon in (0, 1, 5, 10, 10**9):
                assert dollar_absorption_check(c, prefix, horizon).ok
            tail = random_word(rng, a.pa.alphabet, 9, min_len=1)
            dists = outcome(c.pa, prefix + tail)
            for position in range(len(prefix) + 1, len(prefix) + len(tail) + 1):
                d = dists[position]
                assert d.mass(c.q_n) == HALF
                assert d.mass(c.q_n_hat) == HALF


def test_criterion_08_negative_instance_exhaustive():
    # frozen by the independent pre-build enumeration: over all words of
    # length <= 10 on the twinned coin-flip fixture, the largest norm at
    # any step past 0 is exactly 1/2
    with criterion(8, "exhaustive sweep of the value-1/2 twin tops out at norm 1/2",
                   limit=60):
        c = twin(lift(b_half()))
        top = Fraction(0)
        stack = [(c.pa.initial, 0)]
        while stack:
            dist, depth = stack.pop()
            if depth == 10:
                continue
            for letter in c.pa.alphabet:
                succ = step(c.pa, dist, letter)
                n = succ.norm()
                if n > top:
                    top = n
                stack.append((succ, depth + 1))
        assert top == HALF


def test_criterion_09_oracle_equivalence():
    with criterion(9, "stepwise outcomes equal the matrix oracle (500 pairs)"):
        rng = random.Random(0xFEED)
        for _ in range(500):
            pa = random_pa(rng)
            w = random_word(rng, pa.alphabet, 20)
            assert outcome(pa, w) == matrix_oracle(pa, w)


def test_criterion_10_search_determinism():
    with criterion(10, "searches are deterministic and equal to the brute-force "
                       "reference (50 instances)"):
        rng = random.Random(0xACDC)
        for _ in range(50):
            b = random_value1_instance(rng, max_states=5)
            first = bounded_value_search(b, 4)
            assert first == reference_search(b, 4)
            assert first == bounded_value_search(b, 4)
            schedule = witness_schedule_search(b, 3, 4)
            assert schedule == reference_schedule(b, 3, 4)
            assert schedule == witness_schedule_search(b, 3, 4)


def test_criterion_11_format_round_trip():
    with criterion(11, "parse/serialize identity on the corpus; CSV rows re-sum to 1"):
        corpus = []
        for b in (b_one(), b_half()):
            a = lift(b)
            corpus.extend([b.pa, a, twin(a)])
        rng = random.Random(0xABBA)
        for _ in range(20):
            b = random_value1_instance(rng)
            corpus.append(b.pa)
            a = lift(b)
            corpus.extend([a, twin(a)])
        assert len(corpus) >= 20
        for obj in corpus:
            text = serialize_pa(obj)
            back = parse_pa(text)
            assert serialize_pa(back) == text
            back_pa = getattr(back, "pa", back)
            obj_pa = getattr(obj, "pa", obj)
            assert back_pa == obj_pa

        c = twin(lift(b_half()))
        for w in ((), ("a",), ("a", c.dollar, c.hash, "a", "a", c.dollar)):
            buf = io.StringIO()
            write_trace_csv(c.pa.states, norm_trace(c.pa, w), buf)
            buf.seek(0)
            states, rows = read_trace_csv(buf)
            assert states == c.pa.states
            assert len(rows) == len(w) + 1
            for row in rows:
                assert sum(row.values()) == 1
