from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from planwright.ir import And, Atom, Not, Or
from planwright.values import IRDecodeError
from planwright.textworld import (
    TextWorldEnv,
    UnknownEntityError,
    WorldState,
    apply_skill,
    check_goal,
    describe_state,
    load_world,
)
from scenarios import kitchen_fixture, save_world

SALMON_GOAL = And(
    (
        Atom("on", ("salmon", "kitchentable")),
        Atom("is_heated", ("salmon",)),
        Not(Atom("is_open", ("fridge_305",))),
    )
)


def run_sequence(state, steps):
    for skill, args in steps:
        result, state = apply_skill(state, skill, args)
        assert result.success, result.observation
    return state


class TestSkills:
    def test_open_fridge_when_adjacent(self):
        state = run_sequence(kitchen_fixture(), [("walk_to", ("fridge_305",))])
        result, new_state = apply_skill(state, "open", ("fridge_305",))
        assert result.success
        assert new_state.entity("fridge_305").is_open

    def test_open_requires_adjacency(self):
        result, state = apply_skill(kitchen_fixture(), "open", ("fridge_305",))
        assert not result.success
        assert state == kitchen_fixture()

    def test_grab_with_full_hands_fails_without_change(self):
        state = run_sequence(kitchen_fixture(), [("walk_to", ("counter",))])
        state = WorldState(state.entities, state.agent_at, ("thing1", "thing2"))
        result, new_state = apply_skill(state, "grab", ("pie",))
        assert not result.success
        assert new_state == state
        assert "hands are full" in result.observation.lower()

    def test_grab_from_closed_container_fails(self):
        state = run_sequence(kitchen_fixture(), [("walk_to", ("fridge_305",))])
        result, _ = apply_skill(state, "grab", ("salmon",))
        assert not result.success
        assert "closed" in result.observation

    def test_heat_requires_heater_containment(self):
        state = run_sequence(
            kitchen_fixture(),
            [
                ("walk_to", ("fridge_305",)),
                ("open", ("fridge_305",)),
                ("grab", ("salmon",)),
            ],
        )
        result, _ = apply_skill(state, "heat", ("salmon",))
        assert not result.success
        state = run_sequence(
            state,
            [
                ("walk_to", ("microwave",)),
                ("open", ("microwave",)),
                ("put_in", ("salmon", "microwave")),
            ],
        )
        result, heated = apply_skill(state, "heat", ("salmon",))
        assert result.success
        assert heated.entity("salmon").is_heated

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntityError):
            apply_skill(kitchen_fixture(), "walk_to", ("ghost",))

    def test_unknown_skill(self):
        with pytest.raises(ValueError):
            apply_skill(kitchen_fixture(), "teleport", ("salmon",))

    def test_every_tool_argument_is_described(self):
        params = [p for tool in TextWorldEnv.tools for p in tool.to_json()["parameters"]]
        assert params and all(p["description"] for p in params)

    @pytest.mark.parametrize(
        "walk, steps, success, observation",
        [
            ((), [("open", "fridge_305")], False, "You are not next to the fridge_305; walk to it first."),
            (("counter",), [("open", "counter")], False, "The counter cannot be opened."),
            (("fridge_305",), [("open", "fridge_305")], True, "The fridge_305 is now open."),
            (("fridge_305",), [("open", "fridge_305"), ("open", "fridge_305")], False, "The fridge_305 is already open."),
            ((), [("close", "fridge_305")], False, "You are not next to the fridge_305; walk to it first."),
            (("counter",), [("close", "counter")], False, "The counter cannot be closed."),
            (("fridge_305",), [("close", "fridge_305")], False, "The fridge_305 is already closed."),
            (("fridge_305",), [("open", "fridge_305"), ("close", "fridge_305")], True, "The fridge_305 is now closed."),
        ],
        ids=[
            "open-not-next-to", "open-not-openable", "open", "open-already-open",
            "close-not-next-to", "close-not-openable", "close-already-closed", "close",
        ],
    )
    def test_open_and_close_observations(self, walk, steps, success, observation):
        state = run_sequence(kitchen_fixture(), [("walk_to", walk)] if walk else [])
        state = run_sequence(state, [(skill, (target,)) for skill, target in steps[:-1]])
        skill, target = steps[-1]
        result, new_state = apply_skill(state, skill, (target,))
        assert (result.success, result.observation) == (success, observation)
        if success:
            assert new_state.entity(target).is_open == (skill == "open")
        else:
            assert new_state == state


class TestDescribe:
    def test_kitchen_description_covers_entities(self):
        text = describe_state(kitchen_fixture())
        assert "fridge_305" in text and "closed" in text
        assert "salmon" in text and "in fridge_305" in text
        assert "pie" in text
        assert "kitchentable" in text

    def test_empty_world(self):
        assert describe_state(WorldState(())) == "Nothing here."

    def test_description_stable(self):
        state = kitchen_fixture()
        assert describe_state(state) == describe_state(state)


class TestGoal:
    def scripted_full_run(self):
        return run_sequence(
            kitchen_fixture(),
            [
                ("walk_to", ("fridge_305",)),
                ("open", ("fridge_305",)),
                ("grab", ("salmon",)),
                ("walk_to", ("microwave",)),
                ("open", ("microwave",)),
                ("put_in", ("salmon", "microwave")),
                ("heat", ("salmon",)),
                ("grab", ("salmon",)),
                ("walk_to", ("kitchentable",)),
                ("put_on", ("salmon", "kitchentable")),
                ("walk_to", ("fridge_305",)),
                ("close", ("fridge_305",)),
            ],
        )

    def test_goal_after_scripted_sequence(self):
        assert check_goal(self.scripted_full_run(), SALMON_GOAL)

    def test_goal_false_on_fresh_world(self):
        assert not check_goal(kitchen_fixture(), SALMON_GOAL)

    def test_empty_conjunction(self):
        assert check_goal(kitchen_fixture(), And(()))

    def test_unknown_property_raises(self):
        with pytest.raises(ValueError):
            check_goal(kitchen_fixture(), Atom("is_glowing", ("salmon",)))

    @pytest.mark.parametrize(
        "goal, error",
        [
            (And((Atom("is_heated", ("salmon",)), Atom("on", ("salmon", "ghost")))), UnknownEntityError),
            (Or((Not(Atom("is_heated", ("salmon",))), Atom("is_heated", ("ghost",)))), UnknownEntityError),
            (And((Atom("is_open", ("fridge_305",)), Atom("warm", ("salmon",)))), ValueError),
        ],
        ids=["second-argument", "after-a-true-disjunct", "property-after-a-false-conjunct"],
    )
    def test_every_part_is_checked_whatever_the_state(self, goal, error):
        """A goal that names what the world lacks raises on any state, so
        checking it once on the loaded world catches it."""
        with pytest.raises(error):
            check_goal(kitchen_fixture(), goal)


class TestProperties:
    def test_open_close_identity(self):
        state = run_sequence(kitchen_fixture(), [("walk_to", ("fridge_305",))])
        after = run_sequence(state, [("open", ("fridge_305",)), ("close", ("fridge_305",))])
        assert after == state

    def test_grab_put_on_identity(self):
        state = run_sequence(kitchen_fixture(), [("walk_to", ("counter",))])
        after = run_sequence(state, [("grab", ("pie",)), ("put_on", ("pie", "counter"))])
        assert after == state

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_frame_property_random_walks(self, seed):
        rng = random.Random(seed)
        state = kitchen_fixture()
        entity_ids = [e.id for e in state.entities]
        for _ in range(8):
            skill = rng.choice(["walk_to", "open", "close", "grab", "put_on", "put_in", "heat"])
            if skill in ("put_on", "put_in"):
                args = (rng.choice(entity_ids), rng.choice(entity_ids))
            else:
                args = (rng.choice(entity_ids),)
            result, new_state = apply_skill(state, skill, args)
            if not result.success:
                assert new_state == state
            else:
                _assert_frame(state, new_state, skill, args)
            state = new_state

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda w: w.update(agent_at="pantry"), "agent_at names 'pantry', which the world lacks"),
            (lambda w: w.update(hands=[None, "knife"]), "hands names 'knife', which the world lacks"),
            (lambda w: w["entities"][4]["location"].update(target="shelf"), "location of pie names 'shelf', which the world lacks"),
            (lambda w: w["entities"][5]["location"].update(target="box"), "location of salmon names 'box', which the world lacks"),
            (lambda w: w["entities"][4].update(location={"kind": "at", "target": "door"}), "location of pie names 'door', which the world lacks"),
            (lambda w: w.update(hands=["pie", "pie"]), "hands hold 'pie' twice"),
            (lambda w: w.update(hands=["pie", None]), "hands hold 'pie', whose location is 'on counter'"),
            (lambda w: w["entities"][5].update(location={"kind": "held"}), "location of salmon is held, but no hand holds it"),
        ],
        ids=["agent_at", "hands", "on", "in", "at", "hands-twice", "hands-not-held", "held-not-in-hands"],
    )
    def test_world_naming_a_missing_entity_is_refused(self, edit, message):
        data = kitchen_fixture().to_json()
        assert [e["id"] for e in data["entities"]][4:] == ["pie", "salmon"]
        WorldState.from_json(data)
        edit(data)
        with pytest.raises(IRDecodeError) as info:
            WorldState.from_json(data)
        assert str(info.value) == message

    def test_world_fixture_round_trip(self, tmp_path):
        path = tmp_path / "world.json"
        save_world(kitchen_fixture(), path)
        assert load_world(path) == kitchen_fixture()
        assert load_world(path).to_json() == kitchen_fixture().to_json()


def _assert_frame(before: WorldState, after: WorldState, skill: str, args):
    """Successful transitions only touch what the skill's rule names."""
    touched = set(args)
    for b in before.entities:
        a = after.entity(b.id)
        if b.id not in touched and b != a:
            raise AssertionError(f"{skill}{args} modified unrelated entity {b.id}")
        if b.id in touched:
            if skill in ("walk_to",):
                assert a == b
            if skill in ("open", "close"):
                assert a.location == b.location and a.is_heated == b.is_heated
            if skill in ("grab", "put_on", "put_in"):
                assert a.is_open == b.is_open and a.is_heated == b.is_heated
            if skill == "heat":
                assert a.location == b.location and a.is_open == b.is_open
    if skill not in ("walk_to",):
        assert after.agent_at == before.agent_at
    if skill not in ("grab", "put_on", "put_in"):
        assert after.hands == before.hands
