"""Campaign store semantics: cell ids, append-only, schema validation."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.obs.store import (
    CELL_ID_LENGTH,
    PROVENANCE_FIELDS,
    STORE_SCHEMA_VERSION,
    CampaignStore,
    StoredCell,
    canonical_json,
    cell_id_from_manifests,
    manifest_determinism_payload,
    read_jsonl,
    validate_campaign_lines,
    validate_record,
)


def manifest(config="S-LocW", **overrides):
    base = {
        "schema_version": 1,
        "workflow": "micro-2k@8",
        "config": config,
        "ranks": 8,
        "iterations": 2,
        "calibration_sha256": "abc123",
        "git_sha": "deadbeef",
        "repro_version": "0.1.0",
        "python_version": "3.11.0",
    }
    base.update(overrides)
    return base


def cell(cell_id="0" * CELL_ID_LENGTH, key="micro-2k@8"):
    return StoredCell(
        cell_id=cell_id,
        key=key,
        deterministic={
            "family": "micro-2k",
            "ranks": 8,
            "configs": {"S-LocW": {"makespan": 1.0}},
            "winner": "S-LocW",
        },
        host={"kind": "simulated", "wall_seconds": 0.5},
    )


class TestCellIds:
    def test_deterministic_across_calls(self):
        manifests = [manifest("S-LocW"), manifest("P-LocR")]
        assert cell_id_from_manifests(manifests) == cell_id_from_manifests(
            manifests
        )

    def test_config_order_irrelevant(self):
        forward = [manifest("S-LocW"), manifest("P-LocR")]
        assert cell_id_from_manifests(forward) == cell_id_from_manifests(
            list(reversed(forward))
        )

    def test_provenance_fields_excluded(self):
        a = [manifest(git_sha="aaa", repro_version="1", python_version="x")]
        b = [manifest(git_sha="bbb", repro_version="2", python_version="y")]
        assert cell_id_from_manifests(a) == cell_id_from_manifests(b)

    def test_calibration_changes_id(self):
        a = [manifest(calibration_sha256="aaa")]
        b = [manifest(calibration_sha256="bbb")]
        assert cell_id_from_manifests(a) != cell_id_from_manifests(b)

    def test_spec_changes_id(self):
        assert cell_id_from_manifests(
            [manifest(iterations=2)]
        ) != cell_id_from_manifests([manifest(iterations=3)])

    def test_length_and_charset(self):
        cell_id = cell_id_from_manifests([manifest()])
        assert len(cell_id) == CELL_ID_LENGTH
        assert set(cell_id) <= set("0123456789abcdef")

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            cell_id_from_manifests([])

    def test_determinism_payload_strips_provenance(self):
        payload = manifest_determinism_payload(manifest())
        assert not set(PROVENANCE_FIELDS) & set(payload)
        assert payload["config"] == "S-LocW"


class TestAppendOnly:
    def test_create_refuses_overwrite(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        with pytest.raises(StorageError):
            store.create("camp", {"suite": "micro"})

    def test_append_requires_existing_campaign(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with pytest.raises(StorageError):
            store.append_cell("missing", cell())

    def test_duplicate_cell_id_rejected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        with pytest.raises(StorageError):
            store.append_cell("camp", cell())

    def test_round_trip(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro", "extra": 7})
        store.append_cell("camp", cell("a" * 16))
        store.append_cell("camp", cell("b" * 16, key="micro-64mb@8"))
        loaded = store.read("camp")
        assert loaded.header["suite"] == "micro"
        assert loaded.header["extra"] == 7
        assert [c.cell_id for c in loaded.cells] == ["a" * 16, "b" * 16]
        assert loaded.cells_by_key["micro-2k@8"].deterministic["winner"] == "S-LocW"

    def test_batch_append_bytes_match_sequential_appends(self, tmp_path):
        cells = [cell(c * 16, key=f"wf-{c}@8") for c in "cab"]
        batch = CampaignStore(str(tmp_path / "batch"))
        batch.create("camp", {"suite": "micro"})
        batch.append_cells("camp", cells[:1])
        batch.append_cells("camp", cells[1:])
        sequential = CampaignStore(str(tmp_path / "sequential"))
        sequential.create("camp", {"suite": "micro"})
        for one in cells:
            sequential.append_cell("camp", one)
        with open(batch.path("camp"), "rb") as handle:
            batch_bytes = handle.read()
        with open(sequential.path("camp"), "rb") as handle:
            assert batch_bytes == handle.read()
        # One canonical line per cell, in the order given, after the header.
        lines = batch_bytes.decode("utf-8").splitlines()
        assert lines[1:] == [
            canonical_json(one.as_record("camp")) for one in cells
        ]

    def test_batch_append_rejects_duplicates_without_writing(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell("a" * 16))
        with open(store.path("camp"), "rb") as handle:
            before = handle.read()
        for batch in (
            [cell("b" * 16), cell("b" * 16)],  # within the batch
            [cell("c" * 16), cell("a" * 16)],  # against the campaign
        ):
            with pytest.raises(StorageError, match="already recorded"):
                store.append_cells("camp", batch)
            with open(store.path("camp"), "rb") as handle:
                assert handle.read() == before
        with pytest.raises(StorageError):
            store.append_cells("missing", [cell()])

    def test_next_name_skips_existing(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        assert store.next_name("micro") == "micro-001"
        store.create("micro-001", {"suite": "micro"})
        assert store.next_name("micro") == "micro-002"

    def test_bad_names_rejected(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        for bad in ("", ".hidden", "a/b"):
            with pytest.raises(StorageError):
                store.path(bad)


class TestSchemaValidation:
    def test_valid_file_passes(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        assert store.validate("camp") == []

    def test_missing_header_detected(self):
        lines = [canonical_json(cell().as_record("camp"))]
        problems = validate_campaign_lines(lines)
        assert any("no campaign header" in p for p in problems)

    def test_duplicate_cell_detected(self):
        record = canonical_json(cell().as_record("camp"))
        header = canonical_json(
            {
                "record": "campaign",
                "schema_version": STORE_SCHEMA_VERSION,
                "campaign": "camp",
                "suite": "micro",
            }
        )
        problems = validate_campaign_lines([header, record, record])
        assert any("duplicate cell_id" in p for p in problems)

    def test_winner_must_be_among_configs(self):
        record = cell().as_record("camp")
        record["deterministic"]["winner"] = "nope"
        assert any(
            "winner" in p for p in validate_record(record)
        )

    def test_invalid_json_detected(self):
        problems = validate_campaign_lines(["{not json"])
        assert any("invalid JSON" in p for p in problems)

    def test_unknown_record_type_detected(self):
        problems = validate_record({"record": "mystery"})
        assert any("unknown record type" in p for p in problems)

    def test_stored_lines_are_canonical_json(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("camp", {"suite": "micro"})
        store.append_cell("camp", cell())
        with open(store.path("camp"), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert canonical_json(record) == line.rstrip("\n")


def split_last_record(path):
    """(bytes before the last record, the last record with its newline)."""
    with open(path, "rb") as handle:
        data = handle.read()
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    return data[:start], data[start:]


class TestTornFinalLine:
    """A crash mid-append leaves an unterminated last line; it must read as
    the intact prefix, and the next append must start a fresh line."""

    @settings(max_examples=8, deadline=None)
    @given(
        makespans=st.lists(
            st.floats(min_value=0.001, max_value=1e4), min_size=1, max_size=3
        )
    )
    def test_campaign_truncated_at_every_offset(self, makespans):
        with tempfile.TemporaryDirectory() as root:
            store = CampaignStore(root)
            store.create("c")
            for index, makespan in enumerate(makespans):
                stored = cell(cell_id=f"{index:016x}")
                stored.deterministic["configs"]["S-LocW"]["makespan"] = makespan
                store.append_cell("c", stored)
            prefix, last = split_last_record(store.path("c"))
            with open(store.path("c"), "wb") as handle:
                handle.write(prefix)
            intact = store.read("c")
            extra = cell(cell_id="f" * CELL_ID_LENGTH, key="extra@1")
            for offset in range(len(last)):
                with open(store.path("c"), "wb") as handle:
                    handle.write(prefix + last[:offset])
                assert store.read("c") == intact
                store.append_cell("c", extra)
                assert store.read("c").cells == intact.cells + [extra]
                with open(store.path("c"), "rb") as handle:
                    data = handle.read()
                assert data == prefix + canonical_json(
                    extra.as_record("c")
                ).encode("utf-8") + b"\n"

    def test_interior_corruption_names_path_and_line(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.create("c")
        store.append_cell("c", cell(cell_id="1" * CELL_ID_LENGTH))
        store.append_cell("c", cell(cell_id="2" * CELL_ID_LENGTH))
        path = store.path("c")
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        lines[1] = lines[1][:-7]
        with open(path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(StorageError, match=f"{path}:2: corrupt record"):
            store.read("c")

    def test_non_object_record_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "log.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n\n[1, 2]\n')
        with pytest.raises(StorageError, match=f"{path}:3: record is not"):
            read_jsonl(path)
