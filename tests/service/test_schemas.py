"""SubmitRequest parsing/fan-out and response payload shaping."""

import pytest

import repro.service.schemas as schemas
from repro.serialization import SpecError
from repro.service.schemas import SubmitRequest, error_payload, job_payload

SMALL_SPEC = {
    "topology": {"name": "line", "params": {"n_hops": 2}},
    "duration_s": 0.05,
}


class TestSubmitRequestParsing:
    def test_round_trip(self):
        request = SubmitRequest.from_dict(
            {"spec": SMALL_SPEC, "seeds": [4, 7], "sweep": {"scheme_label": ["D", "R16"]},
             "max_attempts": 5}
        )
        assert SubmitRequest.from_dict(request.to_dict()) == request

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "bogus": 1})

    def test_spec_required_and_must_be_dict(self):
        with pytest.raises(SpecError, match="spec"):
            SubmitRequest.from_dict({})
        with pytest.raises(SpecError, match="spec"):
            SubmitRequest.from_dict({"spec": [1]})

    def test_seeds_int_means_one_through_n(self):
        request = SubmitRequest.from_dict({"spec": SMALL_SPEC, "seeds": 3})
        assert request.seeds == [1, 2, 3]

    @pytest.mark.parametrize("seeds", [0, -1, True, [], "3", [1, "2"]])
    def test_bad_seeds_rejected(self, seeds):
        with pytest.raises(SpecError, match="seeds"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "seeds": seeds})

    def test_sweep_field_must_be_a_spec_field(self):
        with pytest.raises(SpecError, match="warp"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "sweep": {"warp": [1]}})

    def test_sweep_seed_axis_redirected_to_seeds(self):
        with pytest.raises(SpecError, match="'seeds' field"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "sweep": {"seed": [1, 2]}})

    def test_sweep_values_must_be_non_empty_lists(self):
        with pytest.raises(SpecError, match="non-empty"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "sweep": {"scheme_label": []}})

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(SpecError, match="max_attempts"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "max_attempts": 0})


class TestExpand:
    def test_no_axes_is_one_spec(self):
        specs = SubmitRequest.from_dict({"spec": SMALL_SPEC}).expand()
        assert len(specs) == 1

    def test_sweep_times_seeds_with_seeds_innermost(self):
        request = SubmitRequest.from_dict(
            {"spec": SMALL_SPEC, "seeds": 2, "sweep": {"scheme_label": ["D", "R16"]}}
        )
        combos = [(config.mac.name, config.seed) for config in request.expand()]
        assert combos == [("dcf", 1), ("dcf", 2), ("ripple", 1), ("ripple", 2)]

    def test_invalid_swept_value_rejected(self):
        request = SubmitRequest.from_dict(
            {"spec": SMALL_SPEC, "sweep": {"topology": [{"name": "warp"}]}}
        )
        with pytest.raises(SpecError, match="warp"):
            request.expand()

    def test_fanout_ceiling(self, monkeypatch):
        monkeypatch.setattr(schemas, "MAX_FANOUT", 4)
        request = SubmitRequest.from_dict({"spec": SMALL_SPEC, "seeds": 5})
        with pytest.raises(SpecError, match="fans out into 5"):
            request.expand()


class TestPayloads:
    def test_scenario_done_payload_links_result(self, store):
        record = store.submit({"x": 1}, digest="ab" * 32, state="done")
        payload = job_payload(store, record)
        assert payload["state"] == "done"
        assert payload["result"] == f"/results/{'ab' * 32}"

    def test_queued_scenario_has_no_result_link(self, store):
        record = store.submit({"x": 1}, digest="ab" * 32)
        assert "result" not in job_payload(store, record)

    def test_group_state_derived_from_children(self, store):
        store.submit({"x": 1}, job_id="001-a", state="done")
        store.submit({"x": 2}, job_id="002-b")
        group = store.submit(None, kind="group", children=["001-a", "002-b"])
        payload = job_payload(store, group)
        assert payload["state"] == "queued"
        assert payload["progress"]["done"] == 1

        child = store.get("002-b")
        child.state = "done"
        store.update(child)
        assert job_payload(store, group)["state"] == "done"

    def test_group_failed_only_when_all_children_terminal(self, store):
        store.submit({"x": 1}, job_id="001-a", state="failed")
        store.submit({"x": 2}, job_id="002-b")
        group = store.submit(None, kind="group", children=["001-a", "002-b"])
        assert job_payload(store, group)["state"] == "queued"  # still draining
        child = store.get("002-b")
        child.state = "done"
        store.update(child)
        assert job_payload(store, group)["state"] == "failed"

    def test_error_payload_shape(self):
        assert error_payload("SpecError", "bad") == {
            "error": {"type": "SpecError", "message": "bad"}
        }
