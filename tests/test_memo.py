"""Every memo in fanoweb is one bounded lru_cache, and verification does not
depend on what the memos already hold."""

import importlib
import pkgutil

import fanoweb
from fanoweb.polytopes import MEMO_SIZE
from fanoweb.web import (
    ConnectCertificate,
    Relation,
    connect,
    enumerate_class_polygons,
    verify_certificate,
)

MODULES = [importlib.import_module(f"fanoweb.{m.name}") for m in pkgutil.iter_modules(fanoweb.__path__)]


def _memos():
    """The lru_cache wrappers defined in fanoweb's modules."""
    return [
        (f"{mod.__name__}.{name}", fn)
        for mod in MODULES
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
    ]


def _clear_memos():
    for _, fn in _memos():
        fn.cache_clear()


def test_no_hand_written_memo_tables():
    tables = [
        f"{mod.__name__}.{name}"
        for mod in MODULES
        for name, value in vars(mod).items()
        if name.endswith(("_CACHE", "_INTERN")) and isinstance(value, dict)
    ]
    assert tables == []


def test_every_memo_has_the_shared_finite_bound():
    assert isinstance(MEMO_SIZE, int) and MEMO_SIZE > 0
    memos = _memos()
    assert len(memos) >= 10
    unbounded = [name for name, fn in memos if fn.cache_parameters()["maxsize"] != MEMO_SIZE]
    assert unbounded == []


def test_the_memos_are_these():
    """The memo list, pinned: a memo added or deleted shows in this test."""
    assert sorted(name for name, _ in _memos()) == [
        "fanoweb.genset._fiber_structure",
        "fanoweb.links._enumerate_links",
        "fanoweb.links._link_table",
        "fanoweb.links._relation_holds",
        "fanoweb.links._shared",
        "fanoweb.links.step_record",
        "fanoweb.polytopes._hull",
        "fanoweb.polytopes._point_lists",
        "fanoweb.polytopes.in_class",
        "fanoweb.web._replay",
        "fanoweb.web._to_standard_form",
        "fanoweb.web.mmp_reduce",
    ]


def _box2_certificates():
    canon = enumerate_class_polygons(2, "canonical")
    term = enumerate_class_polygons(2, "terminal")
    pairs = [(canon[i], canon[j], "canonical") for i, j in ((0, 315), (40, 7), (123, 250))]
    pairs += [(term[i], term[j], "terminal") for i, j in ((0, 102), (60, 11))]
    return [connect(p, q, cls) for p, q, cls in pairs]


def _tampered(cert):
    k = next(k for k, r in enumerate(cert.relations) if r.witness is not None)
    r = cert.relations[k]
    relations = list(cert.relations)
    relations[k] = Relation(r.rel, (r.witness[0] + 1, r.witness[1]), r.origin)
    return ConnectCertificate(cert.chain, tuple(relations), cert.sequence, cert.class_constraint)


def test_verification_is_the_same_from_cold_memos():
    certs = _box2_certificates()
    warm = [verify_certificate(c) for c in certs]
    assert all(rep.ok for rep in warm)
    for cert, rep in zip(certs, warm):
        _clear_memos()
        assert verify_certificate(cert) == rep
    for cert in certs:
        _clear_memos()
        assert not verify_certificate(_tampered(cert)).ok
