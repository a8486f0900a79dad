from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from planwright.abstraction import InstructionList, fallback_instruction, translate_plan
from planwright.domains import blocksworld_domain
from planwright.gateway import Gateway, assistant
from planwright.planner import Plan, PlanStep
from scenarios import ScriptedBackend, household_domain

FLOORTILE_PLAN = Plan(
    (
        PlanStep("move", ("pos-0-1", "pos-0-2", "h0")),
        PlanStep("place_block", ("pos-0-2", "pos-0-3", "h0", "h1")),
        PlanStep("remove_block", ("pos-0-2", "pos-0-3", "h0", "h1")),
    )
)


def test_llm_translation_with_elision():
    texts = [
        "Move from position pos-0-1 to position pos-0-2.",
        "Place a block at position pos-0-3 from position pos-0-2.",
        "Remove a block at position pos-0-3 from position pos-0-2.",
    ]
    gateway = Gateway(ScriptedBackend([assistant(json.dumps({"instructions": texts}))]))
    result = translate_plan(FLOORTILE_PLAN, blocksworld_domain(), gateway)
    assert [i.text for i in result.items] == texts
    assert result.items[0].text == "Move from position pos-0-1 to position pos-0-2."
    assert "h0" not in result.items[0].text  # elided by the model
    assert result.items[0].step.args == ("pos-0-1", "pos-0-2", "h0")  # but recoverable


def test_empty_plan():
    result = translate_plan(Plan(()), blocksworld_domain())
    assert len(result) == 0
    assert result.render() == ""


def test_fallback_template():
    assert fallback_instruction(PlanStep("pick-up", ("b1",))) == "Pick up b1."
    assert fallback_instruction(PlanStep("put_in", ("salmon", "microwave"))) == "Put in salmon microwave."
    assert fallback_instruction(PlanStep("noop", ())) == "Noop."


def test_wrong_count_retried_then_fallback():
    bad = assistant(json.dumps({"instructions": ["only one"]}))
    gateway = Gateway(ScriptedBackend([bad, bad]))
    result = translate_plan(FLOORTILE_PLAN, blocksworld_domain(), gateway)
    # fallback path: every argument retained
    assert result.items[0].text == "Move pos-0-1 pos-0-2 h0."
    assert len(result) == 3


def test_instruction_that_is_no_string_is_retried_then_fallback():
    bad = assistant(json.dumps({"instructions": [None, {"a": 1}, "Remove."]}))
    gateway = Gateway(ScriptedBackend([bad, bad]))
    result = translate_plan(FLOORTILE_PLAN, blocksworld_domain(), gateway)
    assert result == translate_plan(FLOORTILE_PLAN, blocksworld_domain())


def test_wrong_count_then_correct_uses_retry():
    texts = ["Move.", "Place.", "Remove."]
    gateway = Gateway(
        ScriptedBackend(
            [
                assistant(json.dumps({"instructions": ["nope"]})),
                assistant(json.dumps({"instructions": texts})),
            ]
        )
    )
    result = translate_plan(FLOORTILE_PLAN, blocksworld_domain(), gateway)
    assert [i.text for i in result.items] == texts


def test_unknown_steps_flagged():
    plan = Plan((PlanStep("fly", ("b1",)),))
    result = translate_plan(plan, blocksworld_domain())
    assert result.items[0].known_action is False
    assert result.items[0].text == "Fly b1."


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["pick-up", "put-down", "stack", "unstack", "mystery_op"]),
            st.lists(st.sampled_from(["b1", "b2", "b3"]), max_size=3),
        ),
        max_size=6,
    )
)
def test_bijection_and_determinism(steps):
    plan = Plan(tuple(PlanStep(n, tuple(a)) for n, a in steps))
    domain = blocksworld_domain()
    first = translate_plan(plan, domain)
    second = translate_plan(plan, domain)
    assert len(first) == len(plan.steps)
    for i, item in enumerate(first.items):
        assert item.index == i + 1
        assert item.step == plan.steps[i]
        assert item.text
    assert first.render() == second.render()


def test_serialization_round_trip():
    result = translate_plan(FLOORTILE_PLAN, household_domain())
    again = InstructionList.from_json(result.to_json())
    assert again == result
    rendered = result.render()
    assert rendered.splitlines()[0].startswith("1. ")
