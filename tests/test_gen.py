import hashlib

from inlr_kit.gen import (cc_rule_instance, iplus_rule_instance,
                          quantum_rule_instance, random_closed_term,
                          random_term_in_context)
from inlr_kit.rng import derive_rng

# sha256 over gen's outputs, each followed by the next draw of its rng, on
# the lanes below; a change to how gen builds terms must leave it as it is
GEN_DIGEST = \
    "d138677f8bd81a6f8b30f00bf087539ef0cda875df942c7c5d47e897b4b79174"


def _gen_calls():
    for k, calc in enumerate(("iplus", "quantum", "cc")):
        for i in range(600):
            yield lambda r: random_term_in_context(calc, r), \
                derive_rng(500, k, i)
            yield lambda r: random_closed_term(calc, r), derive_rng(501, k, i)
            yield lambda r: random_term_in_context(calc, r, max_size=12), \
                derive_rng(502, k, i)
    for i in range(8):
        for n in range(1, 20):
            yield lambda r: iplus_rule_instance(n, r), derive_rng(503, n, i)
        for n in range(19, 44):
            yield lambda r: quantum_rule_instance(n, r), derive_rng(504, n, i)
        for n in range(1, 43):
            yield lambda r: cc_rule_instance(n, r), derive_rng(505, n, i)


def test_gen_outputs_are_pinned():
    h = hashlib.sha256()
    calls = 0
    for call, rng in _gen_calls():
        h.update(repr(call(rng)).encode())
        h.update(str(rng.integers(1 << 62)).encode())
        calls += 1
    assert calls == 6088
    assert h.hexdigest() == GEN_DIGEST
