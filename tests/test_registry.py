"""Tests for the vanishing-axiom registry: derivation, format, digests."""

import pytest

from hkrigidity.picard import DivisorClass
from hkrigidity.registry import (
    MAX_REGISTRY_BYTES,
    MAX_REGISTRY_ENTRIES,
    Registry,
    RegistryEntry,
    RegistryFormatError,
    default_registry,
    default_registry_text,
    derive,
    digest,
    dumps,
    load_path,
    loads,
)


def test_derivation_produces_two_axioms():
    reg = derive(5)
    assert len(reg) == 2
    keys = sorted(entry.key for entry in reg.entries)
    assert keys == [
        ((), (-3, 1, 1, 1, 1)),
        (((1, 2), (1, 3), (1, 4), (1, 5)), (-2, 0, 1, 1, 1)),
    ]
    assert [entry.id for entry in sorted(reg.entries, key=lambda e: e.key)] == [
        "axiom-01",
        "axiom-02",
    ]


def test_shipped_file_matches_derivation():
    assert default_registry_text() == dumps(derive(5))


@pytest.mark.parametrize("n", [4, 6, 7])
def test_derivation_agrees_at_other_exponents(n):
    # the problems left unresolved without a registry are the same two
    assert default_registry_text() == dumps(derive(n))


def test_roundtrip_is_byte_stable():
    text = default_registry_text()
    assert dumps(loads(text)) == text


def test_lookup_by_canonical_key():
    reg = default_registry()
    hit = reg.lookup(((), (-3, 1, 1, 1, 1)))
    assert hit is not None and hit.id == "axiom-01"
    assert reg.lookup(((), (0, 0, 0, 0, 0))) is None


def test_digest_is_stable_and_content_sensitive():
    text = default_registry_text()
    assert digest(text) == digest(text)
    assert digest(text) != digest(text + "\n")
    assert len(digest(text)) == 64


def test_registry_keeps_its_text():
    text = default_registry_text() + "# trailing comment\n"
    assert loads(text).text == text
    built = Registry(default_registry().entries)
    assert built.text == dumps(built) == default_registry_text()


def test_load_path(tmp_path):
    target = tmp_path / "axioms.txt"
    target.write_text(default_registry_text(), encoding="utf-8")
    assert dumps(load_path(target)) == default_registry_text()


def test_rejects_non_canonical_entry():
    # an S5 translate of a canonical problem is not canonical
    entry = RegistryEntry(
        id="axiom-xx",
        logset=((1, 2), (2, 3), (2, 4), (2, 5)),
        twist=DivisorClass(-2, (1, 0, 1, 1)),
        justification="x",
    )
    with pytest.raises(RegistryFormatError):
        Registry((entry,))


def test_rejects_duplicate_ids():
    base = derive(5).entries
    clone = RegistryEntry(
        id=base[0].id,
        logset=base[1].logset,
        twist=base[1].twist,
        justification="x",
    )
    with pytest.raises(RegistryFormatError):
        Registry((base[0], clone))


def test_rejects_duplicate_keys():
    base = derive(5).entries
    clone = RegistryEntry(
        id="axiom-99",
        logset=base[0].logset,
        twist=base[0].twist,
        justification="x",
    )
    with pytest.raises(RegistryFormatError):
        Registry((base[0], clone))


def test_loads_rejects_malformed_lines():
    good = default_registry_text()
    mangled = good.replace("id=axiom-01", "axiom-01", 1)
    with pytest.raises(RegistryFormatError):
        loads(mangled)
    for twist in ("[-3,1,1,1]", "[]", "{}", "[1.5,0,0,0,0]"):
        mangled = good.replace("twist=[-3,1,1,1,1]", f"twist={twist}", 1)
        with pytest.raises(RegistryFormatError):
            loads(mangled)


def test_loads_rejects_deeply_nested_json():
    # json.loads gives up on deep nesting with RecursionError, not ValueError
    for field in ("logset", "twist"):
        values = {"id": "x", "logset": "[]", "twist": "[0,0,0,0,0]",
                  "justification": "x"}
        values[field] = "[" * 100_000
        line = "\t".join(f"{k}={v}" for k, v in values.items())
        with pytest.raises(RegistryFormatError, match="line 1"):
            loads(line + "\n")


def test_load_path_bounds_the_read(tmp_path):
    target = tmp_path / "axioms.txt"
    target.write_bytes(b"#" * (MAX_REGISTRY_BYTES - 1) + b"\n")
    assert len(load_path(target)) == 0
    target.write_bytes(b"#" * MAX_REGISTRY_BYTES + b"\n")
    with pytest.raises(RegistryFormatError, match="longer than"):
        load_path(target)


def test_loads_bounds_the_entry_count():
    text = default_registry_text()
    entry = next(ln for ln in text.splitlines() if ln.startswith("id="))
    with pytest.raises(RegistryFormatError, match="more than"):
        loads("\n".join([entry] * (MAX_REGISTRY_ENTRIES + 1)))


def test_loads_rejects_unsorted_entries():
    text = default_registry_text()
    lines = text.splitlines(keepends=True)
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#") and ln.strip()]
    swapped = "".join(header + body[::-1])
    with pytest.raises(RegistryFormatError):
        loads(swapped)


def test_derivation_rejects_obstructed_exponent():
    # exponent 3 has an obstructed character, which can never be an axiom
    with pytest.raises(RuntimeError):
        derive(3)
