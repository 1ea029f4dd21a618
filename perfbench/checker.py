"""Independent checks of fanoweb's outputs against the reference geometry.

Certificates are checked in the JSON shape fanoweb writes (`class`, `chain`
of `{"dim", "points"}`, `relations` of `{"rel", "witness"}`); only plain
data is read, never fanoweb objects. Enumerations are checked against the
orbit-generated polygon set of reference.py.
"""

from __future__ import annotations

import copy

import reference as R


class Checker:
    def __init__(self):
        self._info = {}

    def _polygon(self, v):
        got = self._info.get(v)
        if got is None:
            got = (R.is_canonical(v), R.is_terminal(v), R.primitive_points(v))
            self._info[v] = got
        return got

    def certificate(self, cert, p, q, cls):
        """Failures of a certificate joining the vertex tuples p and q."""
        bad = []
        if cert.get("class") != cls:
            bad.append(f"class is {cert.get('class')!r}, not {cls!r}")
        chain = []
        for i, m in enumerate(cert["chain"]):
            v = tuple(tuple(x) for x in m["points"])
            if m.get("dim") != 2 or v != R.hull(v):
                bad.append(f"member {i} is not given by its canonical vertices")
            chain.append(v)
        if not chain or chain[0] != p or chain[-1] != q:
            bad.append("chain endpoints differ from the queries")
        rels = cert["relations"]
        if len(rels) != len(chain) - 1:
            return bad + ["chain and relation lengths disagree"]
        member_ok = 1 if cls == "terminal" else 0
        for i, v in enumerate(chain):
            if not self._polygon(v)[member_ok]:
                bad.append(f"member {i} is not {cls}")
        for i, r in enumerate(rels):
            a, b = chain[i], chain[i + 1]
            if r["rel"] == "equal":
                if a != b:
                    bad.append(f"relation {i}: 'equal' joins distinct members")
                continue
            if r["rel"] == "supset_dot":
                big, small = a, b
            elif r["rel"] == "subset_dot":
                big, small = b, a
            else:
                bad.append(f"relation {i}: unknown kind {r['rel']!r}")
                continue
            w = None if r["witness"] is None else tuple(r["witness"])
            pb, ps = self._polygon(big)[2], self._polygon(small)[2]
            if w is None or w in ps or pb != ps | {w}:
                bad.append(f"relation {i}: members do not differ by the witness point")
        return bad

    def enumeration(self, result, cls, mfp_only, orbit):
        """Failures of one enumerate_fano result.

        result["polygons"] is the class polygon set of the box, result["classes"]
        the (normal form vertices, count) pairs; orbit is reference.orbit_polygons
        of the same box.
        """
        bad = []
        want = {v for v, i in orbit.items() if R.in_class(R.REFLEXIVE[i][1], cls)}
        got = {tuple(tuple(x) for x in v) for v in result["polygons"]}
        if got != want:
            bad.append(f"{len(want - got)} polygons missing, {len(got - want)} extra")
        forms = {R.normal_form(R.REFLEXIVE[i][1]): i for i in range(len(R.REFLEXIVE))}
        sizes = {}
        for i in orbit.values():
            sizes[i] = sizes.get(i, 0) + 1
        seen = set()
        for nf, count in result["classes"]:
            i = forms.get(R.normal_form(tuple(tuple(x) for x in nf)))
            if i is None or i in seen:
                bad.append("a class is unknown or listed twice")
                continue
            seen.add(i)
            if count != sizes[i]:
                bad.append(f"class {R.REFLEXIVE[i][0]}: {count} polygons, reference has {sizes[i]}")
        if seen != R.class_ids(cls, mfp_only):
            bad.append(f"{len(seen)} classes, reference has {len(R.class_ids(cls, mfp_only))}")
        return bad


def encode(v):
    return {"dim": 2, "points": [list(x) for x in v]}


def _sample_certificate():
    """Hexagon, minus (1,1), minus (0,-1): dP6 to dP7 to F1."""
    chain = [
        ((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)),
        ((-1, -1), (0, -1), (1, 0), (0, 1), (-1, 0)),
        ((-1, -1), (1, 0), (0, 1), (-1, 0)),
    ]
    rels = [
        {"rel": "supset_dot", "witness": [1, 1], "origin": ["reduction"]},
        {"rel": "supset_dot", "witness": [0, -1], "origin": ["reduction"]},
    ]
    return {"class": "terminal", "chain": [encode(v) for v in chain], "relations": rels}, chain


def self_test():
    """Failures of the checker to accept sound inputs or reject planted faults."""
    bad = []
    ck = Checker()
    cert, chain = _sample_certificate()
    if ck.certificate(cert, chain[0], chain[-1], "terminal"):
        bad.append("sound certificate rejected")
    dropped = copy.deepcopy(cert)
    del dropped["chain"][1], dropped["relations"][1]
    wrong_witness = copy.deepcopy(cert)
    wrong_witness["relations"][0]["witness"] = [0, 1]
    outside = copy.deepcopy(cert)
    # two interior lattice points, (0, 0) and (1, 0)
    outside["chain"][1] = encode(R.hull(((-1, -1), (2, -1), (1, 1), (-1, 1))))
    planted = (
        ("dropped member", dropped, "do not differ"),
        ("wrong witness", wrong_witness, "do not differ"),
        ("member outside the class", outside, "is not terminal"),
    )
    for name, bad_cert, expect in planted:
        if not any(expect in f for f in ck.certificate(bad_cert, chain[0], chain[-1], "terminal")):
            bad.append(f"planted fault not detected: {name}")
    orbit = R.orbit_polygons(2)
    reps = {}
    for v, i in orbit.items():
        reps.setdefault(i, []).append(v)
    result = {"polygons": [list(v) for v in orbit],
              "classes": [[list(vs[0]), len(vs)] for vs in reps.values()]}
    if ck.enumeration(result, "canonical", False, orbit):
        bad.append("sound enumeration rejected")
    result["polygons"] = result["polygons"][1:]
    if not any("1 polygons missing" in f for f in ck.enumeration(result, "canonical", False, orbit)):
        bad.append("planted fault not detected: enumeration with one polygon removed")
    return bad
