import numpy as np
import pytest

from meshmotion.container import ValidationError, read_container, require, write_container

MAGIC = "TESTMAG1"
FIRST = ("first", np.arange(3.0))
SECOND = ("second", np.arange(4))


def _two_sections(tmp_path):
    """A two-section file and the offset where its second section starts."""
    head = tmp_path / "head.bin"
    write_container(head, MAGIC, [FIRST])
    path = tmp_path / "full.bin"
    write_container(path, MAGIC, [FIRST, SECOND])
    return path, head.stat().st_size


# cut = bytes of the second section kept: [u32 name length][6-byte name][u8 dtype][u64 count][payload]
@pytest.mark.parametrize("cut,what", [
    (2, "name length"), (7, "name"), (10, "dtype of 'second'"),
    (14, "element count of 'second'"), (30, "payload of 'second'")])
def test_truncated_file_names_file_and_section_offset(tmp_path, cut, what):
    path, start = _two_sections(tmp_path)
    path.write_bytes(path.read_bytes()[:start + cut])
    with pytest.raises(ValidationError) as ei:
        read_container(path, MAGIC)
    assert str(ei.value) == (f"{path}: truncated while reading {what} of section starting "
                             f"at offset {start}")


def test_unknown_dtype_code_names_section(tmp_path):
    path, start = _two_sections(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[start + 4 + len("second")] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="section 'second' has unknown dtype code 7"):
        read_container(path, MAGIC)


def test_bad_magic_names_file(tmp_path):
    path = tmp_path / "other.bin"
    write_container(path, "OTHERMG1", [FIRST])
    with pytest.raises(ValidationError, match="bad magic") as ei:
        read_container(path, MAGIC)
    assert str(path) in str(ei.value)


def test_sections_are_read_only_views_and_require_copies(tmp_path):
    path, _ = _two_sections(tmp_path)
    sections = read_container(path, MAGIC)
    assert not sections["first"].flags.writeable
    first = require(sections, "first", path, (3, 1))
    assert first.flags.owndata and first.flags.writeable and first.flags.aligned
    assert np.array_equal(first.ravel(), FIRST[1])
    assert np.array_equal(require(sections, "second", path), SECOND[1])
