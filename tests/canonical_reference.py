"""A reference for ``cordant.groups.isomorphism``: the coordinate change
between a presentation and its canonical form, one coordinate at a time
by the Chinese remainder theorem, with no linear algebra."""

from cordant.groups import GroupSpec, _pieces, check_element


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime moduli."""
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


class CanonicalMap:
    """Coordinate change between ``spec`` and ``canonical``, its
    :func:`canonicalize_spec` form.  ``slots`` holds, per canonical
    position, the index of the source factor and the prime-power
    modulus."""

    def __init__(self, spec: GroupSpec) -> None:
        self.spec = spec
        self.slots = tuple((src, p**e) for p, e, src in _pieces(spec))
        self.canonical = GroupSpec(tuple(m for _, m in self.slots))

    def to_canonical(self, a):
        check_element(self.spec, a)
        return tuple(a[src] % m for src, m in self.slots)

    def from_canonical(self, c):
        check_element(self.canonical, c)
        coords = []
        for i, d in enumerate(self.spec.factors):
            r, m = 0, 1
            for pos, (src, mod) in enumerate(self.slots):
                if src == i:
                    r = _crt_pair(r, m, c[pos], mod)
                    m *= mod
            coords.append(r % d)
        return tuple(coords)

