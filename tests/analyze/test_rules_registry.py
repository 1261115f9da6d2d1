"""The shared rule registry: one record per bug class, two detectors."""

import pathlib

from repro.analyze.rules import (
    DYNAMIC_PASSES,
    REGISTRY,
    STATIC_RULE_IDS,
    rule,
    rule_for_static_id,
)
from repro.sanitize import PASSES

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "analysis.md"


class TestRegistryShape:
    def test_all_bug_classes_registered(self):
        assert set(REGISTRY) == {
            "stale-device-read",
            "stale-host-read",
            "short-ghost-transfer",
            "ghost-transfer-out-of-bounds",
            "halo-send-before-sync",
            "unmatched-send",
            "unmatched-recv",
            "send-recv-deadlock",
            "dependence-edge-not-preserved",
            "hoist-not-dominated",
            "fused-access-overlap",
            "device-over-capacity",
            "checkpoint-spike",
        }

    def test_codes_are_unique(self):
        codes = [r.code for r in REGISTRY.values()]
        assert len(codes) == len(set(codes))

    def test_static_ids_resolve_back(self):
        for r in REGISTRY.values():
            assert rule_for_static_id(r.static_rule) is r
        assert rule_for_static_id("use-before-copyin") is None

    def test_coherence_rules_have_both_detectors(self):
        for key in DYNAMIC_PASSES:
            r = rule(key)
            assert r.code.startswith("DF0")
            assert r.static_pass is not None

    def test_crossrank_rules_are_static_only(self):
        for key in ("unmatched-send", "unmatched-recv", "send-recv-deadlock"):
            r = rule(key)
            assert r.dynamic_pass is None
            assert r.code.startswith("DF1")

    def test_static_rule_id_format(self):
        assert STATIC_RULE_IDS["DF001-stale-device-read"] == \
            "stale-device-read"

    def test_verification_rules_are_static_only(self):
        # DF2xx: translation validator + capacity prover — no dynamic
        # counterpart by construction (they gate before execution), and
        # exactly one static pass each
        for key, r in REGISTRY.items():
            if not r.code.startswith("DF2"):
                continue
            assert r.dynamic_pass is None, key
            assert r.static_pass in ("translation-validate", "capacity"), key

    def test_verification_rule_codes_and_severities(self):
        assert rule("dependence-edge-not-preserved").code == "DF201"
        assert rule("hoist-not-dominated").code == "DF202"
        assert rule("fused-access-overlap").code == "DF203"
        assert rule("device-over-capacity").code == "DF210"
        assert rule("checkpoint-spike").code == "DF211"
        from repro.analyze.framework import Severity

        for key in ("dependence-edge-not-preserved", "hoist-not-dominated",
                    "fused-access-overlap", "device-over-capacity"):
            assert rule(key).severity is Severity.ERROR, key
        assert rule("checkpoint-spike").severity is Severity.WARNING

    def test_verification_templates_have_the_fields_the_emitters_pass(self):
        rule("dependence-edge-not-preserved").format(
            kind="raw", var="u", src=1, dst=2, detail="…"
        )
        rule("hoist-not-dominated").format(
            direction="device", var="u", idx=3, detail="…"
        )
        rule("fused-access-overlap").format(
            kernel="a+b", var="u", idx=2, detail="…"
        )
        rule("device-over-capacity").format(
            peak=1, detail="…", usable=0, device="K40", idx=4
        )
        rule("checkpoint-spike").format(
            spike=1, base=2, detail="…", total=3, usable=2, device="K40"
        )


class TestSanitizerIntegration:
    def test_sanitizer_passes_are_the_registry_view(self):
        assert PASSES is DYNAMIC_PASSES

    def test_message_templates_have_the_fields_the_emitters_pass(self):
        rule("stale-device-read").format(
            consumer="kernel 'k'", var="u", ranges="bytes [0, 8)"
        )
        rule("stale-device-read").format_alt(var="u", ranges="x")
        rule("ghost-transfer-out-of-bounds").format(
            direction="device", var="u", lo=0, hi=8, extent=4
        )
        rule("send-recv-deadlock").format(ranks="0,1", detail="…")


class TestDocumentation:
    def test_every_rule_has_a_docs_anchor(self):
        text = DOCS.read_text(encoding="utf-8")
        for r in REGISTRY.values():
            assert f'"{r.anchor}"' in text or f"#{r.anchor}" in text or \
                r.anchor in text, r.key

    def test_docs_name_both_detectors_once(self):
        text = DOCS.read_text(encoding="utf-8")
        for r in REGISTRY.values():
            assert r.code in text, r.code
