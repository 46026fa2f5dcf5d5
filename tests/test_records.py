"""The value records: repr, equality, hashing and immutability over their fields."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from cyclecert import (
    AmbientGenerator,
    BQForm,
    Certificate,
    CurveProfile,
    DiscElement,
    DivisorClass,
    GramLattice,
    HeegnerDivisor,
    HeegnerIndex,
    NewformRecord,
    PullbackDecomposition,
    decompose_heegner,
    enumerate_heegner_divisor,
    special_divisor_index,
    trace_zero_lattice,
    x0_profile,
)
from cyclecert.arith import _Record
from cyclecert.certify import CLAUSE_A1, CLAUSE_A2, CLAUSE_ANALYTIC, CLAUSE_B, CLAUSE_NONE

# (factory building a fresh record, its literal repr); the repr names every field in order
RECORDS = [
    (lambda: BQForm(1, 0, 1), "BQForm(a=1, b=0, c=1)"),
    (lambda: HeegnerIndex(1, -4, 2), "HeegnerIndex(level=1, disc=-4, r=0)"),
    (
        lambda: enumerate_heegner_divisor(HeegnerIndex(1, -4, 0)),
        "HeegnerDivisor(index=HeegnerIndex(level=1, disc=-4, r=0), "
        "classes=((BQForm(a=1, b=0, c=1), Fraction(1, 2)),), degree=Fraction(1, 2), self_paired=True)",
    ),
    (
        lambda: trace_zero_lattice(1),
        "GramLattice(rank=3, gram=((-2, 0, 0), (0, 0, 1), (0, 1, 0)), signature=(1, 2), level=1)",
    ),
    (lambda: DiscElement(3, 7, -1), "DiscElement(level=3, r1=1, r2=5)"),
    (lambda: x0_profile(11), "CurveProfile(label='x0', level=11, index=12, nu2=0, nu3=0, cusps=2, genus=1)"),
    (
        lambda: NewformRecord(11, "11.2.a.a", 2, 1, 0, "fixture"),
        "NewformRecord(level=11, label='11.2.a.a', weight=2, fricke_sign=1, analytic_rank=0, source='fixture')",
    ),
    (
        lambda: Certificate(5, "none", (), None, "why"),
        "Certificate(level=5, verdict='unknown', clause='none', witnesses=(), curve_profile=None, "
        "justification='why')",
    ),
    (
        lambda: DivisorClass(1, {(Fraction(3, 4), 1): 2}),
        "DivisorClass(level=1, heeg_coeffs={(Fraction(3, 4), 1): Fraction(2, 1)}, omega_coeff=Fraction(0, 1), "
        "cusp_coeff=Fraction(0, 1), cusp_ambiguous=False)",
    ),
    (
        lambda: AmbientGenerator(Fraction(3, 4), DiscElement(1, 1, 0)),
        "AmbientGenerator(m=Fraction(3, 4), mu=DiscElement(level=1, r1=1, r2=0))",
    ),
    (
        lambda: decompose_heegner(1, Fraction(3, 4), 1),
        "PullbackDecomposition(level=1, target=(Fraction(3, 4), 1), terms=((AmbientGenerator(m=Fraction(3, 4), "
        "mu=DiscElement(level=1, r1=1, r2=0)), 1),), residual_cusp_ambiguous=True)",
    ),
]
IDS = [expected.split("(", 1)[0] for _, expected in RECORDS]
# a DivisorClass holds a dict, so it is frozen but unhashable
HASHABLE = [(make, expected) for make, expected in RECORDS if not expected.startswith("DivisorClass(")]
HASHABLE_IDS = [i for i in IDS if i != "DivisorClass"]


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in _Record.__subclasses__())


@pytest.mark.parametrize("make,expected", RECORDS, ids=IDS)
def test_repr_is_pinned(make, expected):
    record = make()
    assert repr(record) == str(record) == expected


@pytest.mark.parametrize("make,expected", RECORDS, ids=IDS)
def test_equality_is_on_the_fields_of_one_class(make, expected):
    one, two = make(), make()
    assert one is not two and one == two and not one != two
    values = _values(one)
    assert one != values and not one == values
    assert one.__eq__(values) is NotImplemented


@pytest.mark.parametrize("make,expected", RECORDS, ids=IDS)
def test_fields_live_in_the_instance_dict(make, expected):
    record = make()
    # what a generator and a decomposition keep for the round trip, outside their fields
    extra = {AmbientGenerator: {"_four_nm"}, PullbackDecomposition: {"_index"}}.get(type(record), set())
    assert set(vars(record)) == set(record._fields) | extra


@pytest.mark.parametrize("make,expected", RECORDS, ids=IDS)
def test_the_generated_builder_rebuilds_every_record(make, expected):
    record = make()
    cls = type(record)
    extras = tuple(getattr(record, name) for name in cls._extras)
    rebuilt = cls._from_valid(*_values(record), *extras)
    assert rebuilt is not record and type(rebuilt) is cls
    assert rebuilt == record and vars(rebuilt) == vars(record)


@pytest.mark.parametrize("make,expected", HASHABLE, ids=HASHABLE_IDS)
def test_frozen_records_hash_on_their_fields(make, expected):
    one, two = make(), make()
    assert hash(one) == hash(two) == hash(_values(one))
    assert len({one, two}) == 1


@pytest.mark.parametrize("make,expected", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(make, expected):
    record = make()
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match="cannot delete field '%s'" % name):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.other = 1


def test_divisor_class_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(DivisorClass(1, {(Fraction(3, 4), 1): 2}))


@pytest.mark.parametrize("clause", [CLAUSE_A1, CLAUSE_A2, CLAUSE_B, CLAUSE_ANALYTIC, CLAUSE_NONE])
def test_certificate_verdict_follows_from_the_clause(clause):
    cert = Certificate(5, clause, (), None, "")
    assert (cert.clause, cert.verdict) == (clause, "unknown" if clause == CLAUSE_NONE else "proven_nontrivial")


def test_heegner_divisor_takes_self_paired_from_its_index():
    for idx, paired in (
        (HeegnerIndex(1, -4, 0), True),
        (HeegnerIndex(2, -4, 2), True),
        (HeegnerIndex(2, -23, 1), False),
    ):
        assert HeegnerDivisor(idx, (), Fraction(0)).self_paired is paired is idx.self_paired()


def test_defaults_are_kept():
    d = DivisorClass(2)
    assert (d.heeg_coeffs, d.omega_coeff, d.cusp_coeff, d.cusp_ambiguous) == ({}, 0, 0, False)
    assert DivisorClass(2).heeg_coeffs is not d.heeg_coeffs
    dec = PullbackDecomposition(1, (Fraction(3, 4), 1), ())
    assert dec.residual_cusp_ambiguous is True


def test_ambient_generator_congruence_message_is_pinned():
    with pytest.raises(ValueError) as info:
        AmbientGenerator(Fraction(1, 7), DiscElement(3, 1, 0))
    assert str(info.value) == "m = 1/7 violates m = q(mu) mod 1 for mu = DiscElement(level=3, r1=1, r2=0)"


def _decomposition(term):
    """A level-1 decomposition of Heeg(3/4, 1) built with the one term given."""
    return PullbackDecomposition(1, (Fraction(3, 4), 1), (term,))


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: HeegnerIndex(0, -4, 0), "level must be a positive integer"),
        (lambda: HeegnerIndex(5, 4, 0), "disc must be negative"),
        (lambda: HeegnerIndex(5, -5, 0), "disc must be 0 or 1 mod 4"),
        (lambda: HeegnerIndex(5, -4, 1), "r\\*\\*2 must be disc mod 4N"),
        (lambda: DiscElement(0, 1, 1), "level must be a positive integer"),
        (lambda: GramLattice(5, 2), "rank must be 3 or 4"),
        (lambda: CurveProfile("x", 1, 1, 0, 0, 2), "genus inconsistent"),
        (lambda: NewformRecord(11, "a", 4, 1, 0, "fixture"), "only weight-2"),
        (lambda: NewformRecord(11, "a", 2, 1, 1, "fixture"), "parity inconsistent .* for a"),
        (lambda: NewformRecord(11, "a", 2, -1, True, "fixture"), "fricke_sign and analytic_rank must be integers"),
        (lambda: NewformRecord(11, "a", 2.0, 1, 0, "fixture"), "weight, fricke_sign and .* must be integers"),
        (lambda: NewformRecord(11, 11, 2, 1, 0, "fixture"), "label must be a string"),
        (lambda: DivisorClass(0), "level must be a positive integer"),
        (lambda: NewformRecord(0, "a", 2, 1, 0, "fixture"), "level must be a positive integer"),
        (lambda: NewformRecord(-5, "x", 2, 1, 0, "fixture"), "level must be a positive integer"),
        (lambda: AmbientGenerator(Fraction(-1), DiscElement(1, 0, 0)), "m must be nonnegative"),
        (lambda: Certificate(5, "bogus", (), None, ""), "clause must be one of .*, not 'bogus'"),
        (lambda: GramLattice(3, 2.0), "level must be a positive integer"),
        (lambda: GramLattice(3.0, 2), "^rank must be 3 or 4"),
        (lambda: DiscElement(2.0, 1, 0), "level must be a positive integer"),
        (lambda: HeegnerIndex(2.0, -7, 1), "level must be a positive integer"),
        (lambda: HeegnerIndex(True, -4, 0), "level must be a positive integer"),
        (lambda: HeegnerIndex(1, -4, 0.0), "^disc and r must be integers$"),
        (lambda: HeegnerIndex(1, -4.0, 0), "^disc and r must be integers$"),
        (lambda: special_divisor_index(1, Fraction(3, 4), 1.0), "^r1 must be an integer$"),
        (lambda: decompose_heegner(1, Fraction(3, 4), True), "^r1 must be an integer$"),
        (lambda: DiscElement(2, 1.0, 0), "^r1 and r2 must be integers$"),
        (lambda: DiscElement(2, 1, False), "^r1 and r2 must be integers$"),
        (lambda: DivisorClass(1, cusp_ambiguous="no"), "^cusp_ambiguous must be a bool$"),
        (lambda: AmbientGenerator(Fraction(3, 4), SimpleNamespace(level=1, r1=1, r2=0)), "^mu must be a DiscElement$"),
        (lambda: BQForm(1.5, "x", None), "^a, b and c must be integers$"),
        (lambda: BQForm(1, True, 1), "^a, b and c must be integers$"),
        (lambda: _decomposition(("x", 1)), "^a term must pair an AmbientGenerator with a coefficient$"),
        # a bare generator, a target of three and a key that is no pair are not unpacked into a TypeError
        (
            lambda: _decomposition(AmbientGenerator(Fraction(3, 4), DiscElement(1, 1, 0))),
            "a term must pair an AmbientGenerator with a coefficient$",
        ),
        (lambda: PullbackDecomposition(1, (Fraction(3, 4), 1, 0), ()), "^a target must be a pair \\(m0, r1\\)$"),
        (lambda: DivisorClass(1, {Fraction(3, 4): 1}), "^a Heegner key must be a pair \\(m0, r1\\)$"),
        (
            lambda: _decomposition((AmbientGenerator(Fraction(7, 8), DiscElement(2, 1, 0)), 1)),
            "^cannot add classes at different levels$",
        ),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), [("x", 0.5)], 0.5), "^classes must be a tuple of"),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), (("x", Fraction(1, 2)),), 0), "^classes must be a tuple of"),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), ((BQForm(1, 0, 1),),), 0), "^classes must be a tuple of"),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), ((BQForm(1, 0, 1), 0.5),), 0), "^a rational value must be"),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), (), 0.5), "^a rational value must be"),
        (lambda: HeegnerDivisor((1, -4, 0), (), 0), "^index must be a HeegnerIndex$"),
        (
            lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), ((BQForm(1, 0, 1), Fraction(1, 2)),), 5),
            r"^degree 5 differs from the weights' sum 1/2$",
        ),
        (lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), (), 1), r"^degree 1 differs from the weights' sum 0$"),
        (
            lambda: HeegnerDivisor(HeegnerIndex(1, -4, 0), ((BQForm(1, 0, 2), Fraction(1, 2)),), Fraction(1, 2)),
            r"^BQForm\(a=1, b=0, c=2\) is not of discriminant D",
        ),
        (
            lambda: HeegnerDivisor(HeegnerIndex(2, -4, 2), ((BQForm(1, 0, 1), Fraction(1, 2)),), Fraction(1, 2)),
            r"^BQForm\(a=1, b=0, c=1\) is not of discriminant D with N \| a",
        ),
        (
            lambda: HeegnerDivisor(HeegnerIndex(2, -7, 3), ((BQForm(2, 1, 1), 1),), 1),
            r"^BQForm\(a=2, b=1, c=1\) is not of discriminant D with N \| a and b = r mod 2N",
        ),
        (lambda: CurveProfile("x0", 11, 12.0, 0, 0, 2), "^index, nu2, nu3 and cusps must be integers$"),
        (lambda: CurveProfile("x0", 11, 12, False, 0, 2), "^index, nu2, nu3 and cusps must be integers$"),
        (lambda: CurveProfile(7, 11, 12, 0, 0, 2), "^label must be a string$"),
        (lambda: NewformRecord(11, "a", 2, 1, 0, 5), "^source must be a string$"),
        (lambda: Certificate(5, "none", [], None, ""), "^witnesses must be a tuple of dicts$"),
        (lambda: Certificate(5, "none", ("w",), None, ""), "^witnesses must be a tuple of dicts$"),
        (lambda: Certificate(5, "none", (), "profile", ""), "^curve_profile must be a CurveProfile or None$"),
        (lambda: Certificate(5, "none", (), None, 7), "^justification must be a string$"),
    ],
)
def test_construction_still_validates(make, message):
    with pytest.raises(ValueError, match=message):
        make()
