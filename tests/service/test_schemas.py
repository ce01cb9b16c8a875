"""SubmitRequest parsing and response payload shaping."""

import pytest

from repro.serialization import SpecError
from repro.service.schemas import SubmitRequest, error_payload, job_payload

SMALL_SPEC = {
    "topology": {"name": "line", "params": {"n_hops": 2}},
    "duration_s": 0.05,
}


class TestSubmitRequestParsing:
    def test_round_trip(self):
        request = SubmitRequest.from_dict({"spec": SMALL_SPEC, "max_attempts": 5})
        assert SubmitRequest.from_dict(request.to_dict()) == request

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "bogus": 1})

    @pytest.mark.parametrize("body", [{"seeds": 2}, {"sweep": {"scheme_label": ["D"]}}])
    def test_grid_fields_rejected_by_name(self, body):
        (name,) = body
        with pytest.raises(SpecError, match=name):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, **body})

    def test_spec_required_and_must_be_dict(self):
        with pytest.raises(SpecError, match="spec"):
            SubmitRequest.from_dict({})
        with pytest.raises(SpecError, match="spec"):
            SubmitRequest.from_dict({"spec": [1]})

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(SpecError, match="max_attempts"):
            SubmitRequest.from_dict({"spec": SMALL_SPEC, "max_attempts": 0})


class TestPayloads:
    def test_scenario_done_payload_links_result(self, store):
        record = store.submit({"x": 1}, digest="ab" * 32, state="done")
        payload = job_payload(record)
        assert payload["state"] == "done"
        assert payload["result"] == f"/results/{'ab' * 32}"

    def test_queued_scenario_has_no_result_link(self, store):
        record = store.submit({"x": 1}, digest="ab" * 32)
        assert "result" not in job_payload(record)

    def test_error_payload_shape(self):
        assert error_payload("SpecError", "bad") == {
            "error": {"type": "SpecError", "message": "bad"}
        }
