import json

import pytest

from akblocks import scopes
from akblocks import (
    Caps,
    InputError,
    Multicharge,
    Node,
    block_containing,
    block_of,
    certificate,
    is_kleshchev,
    partitions_of,
    phi,
    scopes_condition,
    scopes_pairing,
    weight,
)

WIDE = Caps(max_n=64, max_r=3, max_e=5, max_delta=6)


# --- good nodes and the Kleshchev recursion ---------------------------------


def test_good_nodes_single_column():
    mc = Multicharge(2, (0,))
    goods = tuple(scopes._good_nodes(((1, 1),), mc))
    # the bottom of the column survives the cancellation at its residue
    assert goods == (Node(2, 1, 1),)


def test_kleshchev_hand_cases():
    assert not is_kleshchev(((2,),), Multicharge(2, (0,)))
    assert is_kleshchev(((1, 1),), Multicharge(2, (0,)))
    assert is_kleshchev(((2, 1),), Multicharge(3, (0,)))
    mc = Multicharge(2, (0, 0))
    assert not is_kleshchev(((1,), ()), mc)
    assert is_kleshchev(((), (1,)), mc)


def test_kleshchev_matches_restriction_for_level_one():
    for e in (2, 3):
        mc = Multicharge(e, (0,))
        for n in range(9):
            for p in partitions_of(n):
                padded = p + (0,)
                restricted = all(
                    padded[b] - padded[b + 1] < e for b in range(len(p))
                )
                assert is_kleshchev((p,), mc) == restricted


def test_empty_multipartition_is_kleshchev():
    assert is_kleshchev(((), (), ()), Multicharge(3, (0, 1, 2)))


# --- pairings ----------------------------------------------------------------


def test_pairing_is_a_weight_preserving_bijection():
    mc = Multicharge(4, (1, 0, 2))
    blk = block_containing(((1, 1), (2,), (2, 1)), mc, WIDE)
    for i in range(4):
        pairs = scopes_pairing(blk, i)
        images = [img for _, img in pairs]
        assert len(set(images)) == len(blk.members)
        target = block_containing(images[0], mc, WIDE)
        assert set(images) == set(target.members)
        assert block_of(phi(blk.lex_least, mc, i), mc) == target.descriptor
        for src, img in pairs:
            assert weight(img, mc) == weight(src, mc)


def test_lex_report_on_small_block():
    mc = Multicharge(2, (0, 1))
    blk = block_containing(((1,), ()), mc, WIDE)
    for i in range(2):
        cond = scopes_condition(blk.lex_least, mc, i)
        if cond.holds and cond.delta >= 0:
            assert scopes._lex_violations(scopes_pairing(blk, i)) == ()


def test_kleshchev_report_structure():
    # the flag is only promised to transfer on condition blocks
    mc = Multicharge(2, (0, 1))
    blk = block_containing(((1,), (1,)), mc, WIDE)
    for i in range(2):
        cond = scopes_condition(blk.lex_least, mc, i)
        flagged = scopes._kleshchev_flags(scopes_pairing(blk, i), mc)
        mismatches = scopes._kleshchev_mismatches(flagged)
        if cond.holds and cond.delta >= 0:
            assert mismatches == ()
        else:  # off the condition the flag need not transfer, and here it fails twice
            assert len(mismatches) == 2


# --- certificates -------------------------------------------------------------


def test_trivial_certificate_constant_polynomial():
    mc = Multicharge(2, (0,))
    blk = block_containing(((),), mc, WIDE)
    cert = certificate(blk, 1, WIDE)
    assert cert.polynomial.to_json() == {"0": 1}
    assert cert.condition.delta == 0 and cert.condition.k >= 0
    assert all(v == "ok" for v in cert.to_json()["checks"].values())


def test_certificate_on_large_core_block():
    mc = Multicharge(5, (0, -2, 1))
    blk = block_containing(((4, 3, 1), (4, 2, 2, 2), (3, 2)), mc, WIDE)
    cert = certificate(blk, 1, WIDE)
    assert cert.condition.k == 1
    assert cert.condition.holds
    assert cert.i == 1
    assert sum(cert.polynomial.coefficient(6 - 2 * k) for k in range(7)) == 24  # delta = 4
    names = set(cert.to_json()["checks"])
    assert {
        "block_bijection",
        "weight_preserved",
        "lex_order_preserved",
        "kleshchev_preserved",
        "branching_spectrum",
        "no_forbidden_config",
        "no_addable_under_condition",
    } <= names


def test_certificate_computes_each_kleshchev_flag_once(monkeypatch):
    # the Kleshchev check and the certificate's pairs read the same flags,
    # so one certificate flags each member and each image exactly once
    calls = []
    real = scopes._is_kleshchev

    def counted(mp, charge):
        calls.append(mp)
        return real(mp, charge)

    monkeypatch.setattr(scopes, "_is_kleshchev", counted)
    mc = Multicharge(5, (0, -2, 1))
    blk = block_containing(((4, 3, 1), (4, 2, 2, 2), (3, 2)), mc, WIDE)
    cert = certificate(blk, 1, WIDE)
    assert len(blk.members) == 4 and cert.condition.delta == 4
    assert len(calls) == 2 * len(blk.members) == len(set(calls))
    assert [flags for _, _, flags in cert.pairs] == [
        (real(src, mc), real(img, mc)) for src, img, _ in cert.pairs
    ]


def test_certificate_reads_one_swap_context_per_member(monkeypatch):
    # the runner-swap hypotheses are stated once per member: one certificate
    # builds one _swap_context and one image per member, and its pairs and
    # branching spectra read them, never re-checking a member through the
    # public branching_polynomial
    from akblocks import branching

    mc = Multicharge(5, (0, -2, 1))
    blk = block_containing(((4, 3, 1), (4, 2, 2, 2), (3, 2)), mc, WIDE)
    calls = {"_swap_context": 0, "_phi": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scopes, "_swap_context", counted("_swap_context", branching._swap_context))
    for module in (branching, scopes):
        monkeypatch.setattr(module, "_phi", counted("_phi", module._phi))

    def forbidden(*args, **kwargs):
        raise AssertionError("certificate re-checked a member through branching_polynomial")

    monkeypatch.setattr(branching, "branching_polynomial", forbidden)
    cert = certificate(blk, 1, WIDE)
    assert "branching_polynomial" not in vars(scopes)
    assert len(blk.members) == 4 and cert.condition.delta == 4
    assert calls == {"_swap_context": 4, "_phi": 4}
    assert [img for _, img, _ in cert.pairs] == [phi(mp, mc, 1) for mp in blk.members]


def test_certificate_json_roundtrip():
    mc = Multicharge(2, (0,))
    blk = block_containing(((),), mc, WIDE)
    cert = certificate(blk, 1, WIDE)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    assert json.loads(blob) == cert.to_json()
    assert cert.to_json()["schema"] == 1


def test_certificate_rejects_failed_condition():
    mc = Multicharge(2, (0, 1))
    found = False
    from akblocks import multipartitions_of

    for n in range(7):
        for mp in multipartitions_of(n, 2):
            rep = scopes_condition(mp, mc, 0)
            if not rep.holds or rep.delta < 0:
                blk = block_containing(mp, mc, WIDE)
                with pytest.raises(InputError):
                    certificate(blk, 0, WIDE)
                found = True
                break
        if found:
            break
    assert found


def test_kleshchev_on_a_thousand_nodes_and_more():
    mc = Multicharge(3, (0,))
    assert is_kleshchev(((2,) * 500,), mc)
    assert not is_kleshchev(((3,) * 400,), mc)
