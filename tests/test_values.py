"""Value semantics of every value type in the package.

For one sample of each type this pins what callers and outputs rely on:

- the repr text;
- equality: values compare their fields and only equal an instance of the
  very same class;
- hashing: a frozen value hashes as the tuple of its field values, so the
  iteration order of a frozenset of values depends on nothing else;
- frozenness: assigning or deleting an attribute of any value raises
  `AttributeError`;
- `replace`, which re-runs `__post_init__`;
- attributes cached on an instance (`DomainModel._parents`, the JSON text
  `jsonio.dumps` keeps, `GroundTask.relaxed`), which equality, hashing,
  repr and `replace` ignore;
- the JSON form: ``to_json`` decodes back to the sample, `jsonio.dumps`
  writes the same text as ``json.dumps`` of it, and each class's JSON
  declarations name its attributes;
- the JSON reader: every decoder either reads or refuses with
  `IRDecodeError` each sample with one key dropped or replaced, a JSON
  ``true`` is read as an int nowhere, and each class's kind table names its
  fields in order.
"""
from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from typing import Any, Iterator

import pytest

import planwright.cli  # noqa: F401  (loads every runtime module)
from planwright.abstraction import Instruction, InstructionList
from planwright.agents.config import PipelineConfig
from planwright.agents.critic import CriticVerdict
from planwright.agents.events import EventLog, PipelineEvent
from planwright.agents.generation import GenerationOutcome
from planwright.agents.pipeline import PipelineResult, TaskSpec, UpstreamRequest
from planwright.executor import ExecutionLog, ExecutionReport, StepOutcome, StepRecord, ValidatorVerdict
from planwright.gateway import Gateway
from planwright.gateway.messages import AgentMessage, ChatRequest, ToolCall, ToolParam, ToolSchema
from planwright.gateway.transcript import Exchange, Transcript, TranscriptError
from planwright.ir import jsonio
from planwright.ir.edits import Applied, EditResult, Rejected
from planwright.ir.model import (
    ActionSchema,
    AddObjects,
    AddOrModifyFluent,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    ModifyAction,
    Not,
    NumAdd,
    NumConst,
    NumericEffect,
    NumFluent,
    NumSub,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
    effect_from_json,
    expression_from_json,
    term_from_json,
)
from planwright.ir.validate import Violation
from planwright.memory import MemoryEntry
from planwright.pddl.syntax import SList, Symbol
from planwright.planner.grounding import GroundAction, GroundComparison, GroundNumericEffect, Linear, ground
from planwright.planner.heuristics import blind
from planwright.planner.plan import Plan, PlanStep
from planwright.planner.search import SolveConfig, SolveResult
from planwright.planner.validation import Invalid, Valid
from planwright.textworld import Entity, Location, SkillResult, WorldState
from planwright.values import IRDecodeError, Value, field, replace
from scenarios import ScriptedBackend

ON = Atom("on", ("a", "b"))
FUEL = NumFluent("fuel", ("t",))
STACK = ActionSchema("stack", (Parameter("?x", "block"),), Atom("clear", ("?x",)), (SetEffect(Atom("clear", ("?x",)), False),))


def _domain() -> DomainModel:
    return DomainModel(
        "blocks",
        (TypeDecl("block"),),
        (FluentDecl("clear", (Parameter("?x", "block"),)),),
        (STACK,),
    )


def _problem() -> ProblemInstance:
    return ProblemInstance(_domain(), (ObjectDecl("a", "block"),), Assignment.create([Atom("clear", ("a",))]), Not(Atom("clear", ("a",))), "p1")


def _step() -> PlanStep:
    return PlanStep("stack", ("a",))


def _message() -> AgentMessage:
    return AgentMessage("assistant", "ok", (ToolCall("c1", "ask", {"q": "why"}),))


# (sample, field names, repr text). A repr of None is checked against the
# field reprs only: it holds a memory address or is too long to spell out.
FROZEN = [
    (TypeDecl("block", "thing"), ("name", "parent"), "TypeDecl(name='block', parent='thing')"),
    (Parameter("?x", "block"), ("name", "type"), "Parameter(name='?x', type='block')"),
    (
        FluentDecl("clear", (Parameter("?x"),), "boolean", "x is clear"),
        ("name", "parameters", "kind", "description"),
        "FluentDecl(name='clear', parameters=(Parameter(name='?x', type='object'),), kind='boolean', description='x is clear')",
    ),
    (ON, ("fluent", "args"), "Atom(fluent='on', args=('a', 'b'))"),
    (NumConst(Fraction(3, 2)), ("value",), "NumConst(value=Fraction(3, 2))"),
    (FUEL, ("fluent", "args"), "NumFluent(fluent='fuel', args=('t',))"),
    (NumAdd(FUEL, NumConst(Fraction(1))), ("left", "right"), "NumAdd(left=NumFluent(fluent='fuel', args=('t',)), right=NumConst(value=Fraction(1, 1)))"),
    (NumSub(FUEL, FUEL), ("left", "right"), "NumSub(left=NumFluent(fluent='fuel', args=('t',)), right=NumFluent(fluent='fuel', args=('t',)))"),
    (And((ON,)), ("children",), "And(children=(Atom(fluent='on', args=('a', 'b')),))"),
    (Or((ON, ON)), ("children",), "Or(children=(Atom(fluent='on', args=('a', 'b')), Atom(fluent='on', args=('a', 'b'))))"),
    (Not(ON), ("child",), "Not(child=Atom(fluent='on', args=('a', 'b')))"),
    (
        Comparison(">=", FUEL, NumConst(Fraction(0))),
        ("op", "left", "right"),
        "Comparison(op='>=', left=NumFluent(fluent='fuel', args=('t',)), right=NumConst(value=Fraction(0, 1)))",
    ),
    (SetEffect(ON, False), ("atom", "value"), "SetEffect(atom=Atom(fluent='on', args=('a', 'b')), value=False)"),
    (
        NumericEffect("increase", FUEL, NumConst(Fraction(2))),
        ("op", "target", "amount"),
        "NumericEffect(op='increase', target=NumFluent(fluent='fuel', args=('t',)), amount=NumConst(value=Fraction(2, 1)))",
    ),
    (
        STACK,
        ("name", "parameters", "precondition", "effects"),
        "ActionSchema(name='stack', parameters=(Parameter(name='?x', type='block'),), precondition=Atom(fluent='clear', args=('?x',)),"
        " effects=(SetEffect(atom=Atom(fluent='clear', args=('?x',)), value=False),))",
    ),
    (
        _domain(),
        ("name", "types", "fluents", "actions"),
        "DomainModel(name='blocks', types=(TypeDecl(name='block', parent='object'),), fluents=(FluentDecl(name='clear',"
        " parameters=(Parameter(name='?x', type='block'),), kind='boolean', description=''),), actions=(ActionSchema(name='stack',"
        " parameters=(Parameter(name='?x', type='block'),), precondition=Atom(fluent='clear', args=('?x',)),"
        " effects=(SetEffect(atom=Atom(fluent='clear', args=('?x',)), value=False),)),))",
    ),
    (ObjectDecl("a", "block"), ("name", "type"), "ObjectDecl(name='a', type='block')"),
    (
        Assignment.create([ON], {FUEL: 3}),
        ("true_atoms", "numeric"),
        "Assignment(true_atoms=frozenset({Atom(fluent='on', args=('a', 'b'))}), numeric=((NumFluent(fluent='fuel', args=('t',)), Fraction(3, 1)),))",
    ),
    (_problem(), ("domain", "objects", "init", "goal", "name"), None),
    (
        AddOrModifyFluent(FluentDecl("clear"), "planner"),
        ("fluent", "provenance"),
        "AddOrModifyFluent(fluent=FluentDecl(name='clear', parameters=(), kind='boolean', description=''), provenance='planner')",
    ),
    (
        ModifyAction("stack", None, (SetEffect(ON),), "planner"),
        ("action", "precondition", "effects", "provenance"),
        "ModifyAction(action='stack', precondition=None, effects=(SetEffect(atom=Atom(fluent='on', args=('a', 'b')), value=True),), provenance='planner')",
    ),
    (AddObjects((ObjectDecl("b"),), "user"), ("objects", "provenance"), "AddObjects(objects=(ObjectDecl(name='b', type='object'),), provenance='user')"),
    (Applied("updated"), ("detail",), "Applied(detail='updated')"),
    (Rejected("unknown-action", "no such action"), ("reason", "message"), "Rejected(reason='unknown-action', message='no such action')"),
    (EditResult(_domain(), (ObjectDecl("a"),), Applied()), ("domain", "objects", "outcome"), None),
    (Violation("unknown-type", "type t is not declared"), ("code", "message"), "Violation(code='unknown-type', message='type t is not declared')"),
    (Symbol("define", 1, 2), ("text", "line", "col"), "Symbol(text='define', line=1, col=2)"),
    (SList((Symbol("and", 3, 4),), 3, 3), ("items", "line", "col"), "SList(items=(Symbol(text='and', line=3, col=4),), line=3, col=3)"),
    (Linear(Fraction(1, 2), ((0, 1), (2, -1))), ("constant", "coeffs"), "Linear(constant=Fraction(1, 2), coeffs=((0, 1), (2, -1)))"),
    (GroundComparison("<", Linear(Fraction(0), ((1, 1),))), ("op", "form"), "GroundComparison(op='<', form=Linear(constant=Fraction(0, 1), coeffs=((1, 1),)))"),
    (
        GroundNumericEffect("assign", 0, Linear(Fraction(5), ())),
        ("op", "target", "amount"),
        "GroundNumericEffect(op='assign', target=0, amount=Linear(constant=Fraction(5, 1), coeffs=()))",
    ),
    (
        GroundAction("stack", ("a",), 1, 0, (), 2, 1, ()),
        ("name", "args", "pos", "neg", "num", "add_mask", "del_mask", "num_effects"),
        "GroundAction(name='stack', args=('a',), pos=1, neg=0, num=(), add_mask=2, del_mask=1, num_effects=())",
    ),
    (ground(_problem()), ("problem", "atoms", "num_atoms", "actions", "init_bools", "init_nums", "goal"), None),
    (_step(), ("name", "args"), "PlanStep(name='stack', args=('a',))"),
    (Plan((_step(),)), ("steps",), "Plan(steps=(PlanStep(name='stack', args=('a',)),))"),
    (SolveConfig("greedy", "h_add", 10, 1.5), ("strategy", "heuristic", "node_budget", "time_budget"), "SolveConfig(strategy='greedy', heuristic='h_add', node_budget=10, time_budget=1.5)"),
    (Valid(((FUEL, Fraction(1)),)), ("final_numerics",), "Valid(final_numerics=((NumFluent(fluent='fuel', args=('t',)), Fraction(1, 1)),))"),
    (Invalid(2, "precondition of stack"), ("step_index", "violated"), "Invalid(step_index=2, violated='precondition of stack')"),
    (PipelineConfig(4, 0.5, 2), ("correction_limit", "critic_threshold", "critic_iterations"), "PipelineConfig(correction_limit=4, critic_threshold=0.5, critic_iterations=2)"),
    (CriticVerdict(0.9, "fine", True), ("score", "feedback", "accepted"), "CriticVerdict(score=0.9, feedback='fine', accepted=True)"),
    (StepOutcome(True, "goal"), ("done", "reason"), "StepOutcome(done=True, reason='goal')"),
    (ValidatorVerdict("retry", "again", ""), ("decision", "feedback", "notification"), "ValidatorVerdict(decision='retry', feedback='again', notification='')"),
    (
        Instruction(1, "Stack a.", _step()),
        ("index", "text", "step", "known_action"),
        "Instruction(index=1, text='Stack a.', step=PlanStep(name='stack', args=('a',)), known_action=True)",
    ),
    (
        InstructionList((Instruction(1, "Stack a.", _step(), False),)),
        ("items",),
        "InstructionList(items=(Instruction(index=1, text='Stack a.', step=PlanStep(name='stack', args=('a',)), known_action=False),))",
    ),
    (Location("in", "fridge"), ("kind", "target"), "Location(kind='in', target='fridge')"),
    (
        Entity("apple", "item"),
        ("id", "cls", "location", "is_open", "is_heated"),
        "Entity(id='apple', cls='item', location=Location(kind='free', target=''), is_open=False, is_heated=False)",
    ),
    (
        WorldState((Entity("apple", "item", Location("held")), Entity("fridge", "container", is_open=True)), "fridge", ("apple", None)),
        ("entities", "agent_at", "hands"),
        "WorldState(entities=(Entity(id='apple', cls='item', location=Location(kind='held', target=''), is_open=False, is_heated=False),"
        " Entity(id='fridge', cls='container', location=Location(kind='free', target=''), is_open=True, is_heated=False)),"
        " agent_at='fridge', hands=('apple', None))",
    ),
    (SkillResult(False, "it is closed"), ("success", "observation"), "SkillResult(success=False, observation='it is closed')"),
    (
        MemoryEntry("put the apple in the fridge", (1, 0, 2), "planner", 3.0),
        ("summary", "embedding", "source_agent", "timestamp"),
        "MemoryEntry(summary='put the apple in the fridge', embedding=(1, 0, 2), source_agent='planner', timestamp=3.0)",
    ),
    (PipelineEvent("chat", "planner", {"n": 1}), ("kind", "agent", "data"), "PipelineEvent(kind='chat', agent='planner', data={'n': 1})"),
    (
        GenerationOutcome("artifact", 2, 1, False),
        ("artifact", "turns", "critic_rejections", "critic_limit_hit", "restart"),
        "GenerationOutcome(artifact='artifact', turns=2, critic_rejections=1, critic_limit_hit=False, restart=False)",
    ),
    (
        TaskSpec("t", "blocks", "a on table", "a clear"),
        ("name", "domain_description", "initial_state_description", "goal_description"),
        "TaskSpec(name='t', domain_description='blocks', initial_state_description='a on table', goal_description='a clear')",
    ),
    (
        UpstreamRequest("problem", "add_fluent", {"name": "x"}),
        ("origin", "tool", "arguments", "outcome"),
        "UpstreamRequest(origin='problem', tool='add_fluent', arguments={'name': 'x'}, outcome='')",
    ),
    (PipelineResult(None, EventLog()), ("problem", "events", "requests", "error", "gateway_calls", "failure_kind"), None),
    (
        StepRecord(1, "open it", "open", {"entity": "fridge"}, "opened", True),
        ("instruction_index", "thought", "skill", "arguments", "observation", "success"),
        "StepRecord(instruction_index=1, thought='open it', skill='open', arguments={'entity': 'fridge'}, observation='opened', success=True)",
    ),
    (ExecutionLog(), ("records", "status"), "ExecutionLog(records=(), status='completed')"),
    (
        ExecutionReport(ExecutionLog([StepRecord(1, "think")], "stopped-at-1"), ValidatorVerdict("abort"), 1),
        ("log", "verdict", "passes"),
        "ExecutionReport(log=ExecutionLog(records=[StepRecord(instruction_index=1, thought='think', skill=None, arguments=None, observation=None, success=None)],"
        " status='stopped-at-1'), verdict=ValidatorVerdict(decision='abort', feedback='', notification=''), passes=1)",
    ),
    (Gateway(ScriptedBackend([])), ("backend", "recording"), None),
    (ToolParam("name", "the name"), ("name", "description"), "ToolParam(name='name', description='the name')"),
    (
        ToolSchema("ask", "ask the user", (ToolParam("q"),)),
        ("name", "description", "parameters"),
        "ToolSchema(name='ask', description='ask the user', parameters=(ToolParam(name='q', description=''),))",
    ),
    (ToolCall("c1", "ask"), ("id", "name", "arguments"), "ToolCall(id='c1', name='ask', arguments={})"),
    (
        _message(),
        ("role", "content", "tool_calls", "tool_call_id"),
        "AgentMessage(role='assistant', content='ok', tool_calls=(ToolCall(id='c1', name='ask', arguments={'q': 'why'}),), tool_call_id=None)",
    ),
    (
        ChatRequest((AgentMessage("system", "be brief"),)),
        ("messages", "tools"),
        "ChatRequest(messages=(AgentMessage(role='system', content='be brief', tool_calls=(), tool_call_id=None),), tools=())",
    ),
    (
        Exchange("ab12", AgentMessage("assistant")),
        ("fingerprint", "response"),
        "Exchange(fingerprint='ab12', response=AgentMessage(role='assistant', content='', tool_calls=(), tool_call_id=None))",
    ),
    (Transcript(), ("exchanges",), "Transcript(exchanges=[])"),
    (SolveResult("plan", Plan(), 4), ("status", "plan", "nodes_expanded"), "SolveResult(status='plan', plan=Plan(steps=()), nodes_expanded=4)"),
]


def _fields(value, names) -> tuple:
    return tuple(getattr(value, name) for name in names)


def _field_repr(value, names) -> str:
    return f"{type(value).__qualname__}(" + ", ".join(f"{name}={getattr(value, name)!r}" for name in names) + ")"


def _value_types() -> set[type]:
    return {
        cls
        for name, module in list(sys.modules.items())
        if name.startswith("planwright")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and issubclass(cls, Value) and cls._fields and not cls.__subclasses__()
    }


def test_every_value_type_has_a_sample():
    sampled = [type(sample) for sample, _, _ in FROZEN]
    assert len(sampled) == len(set(sampled))
    assert set(sampled) == _value_types()


def _ids(cases):
    return [type(sample).__name__ for sample, _, _ in cases]


@pytest.mark.parametrize("sample, names, text", FROZEN, ids=_ids(FROZEN))
def test_repr(sample, names, text):
    assert repr(sample) == _field_repr(sample, names)
    if text is not None:
        assert repr(sample) == text


@pytest.mark.parametrize("sample, names, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_value_semantics(sample, names, text):
    twin = replace(sample)
    assert twin is not sample
    assert twin == sample and not twin != sample
    assert _fields(twin, names) == _fields(sample, names)
    assert sample.__eq__(object()) is NotImplemented
    assert sample != _fields(sample, names)
    try:
        expected = hash(_fields(sample, names))
    except TypeError:  # a field is unhashable, so the value is too
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == hash(twin) == expected
    with pytest.raises(AttributeError):
        setattr(sample, names[0], getattr(sample, names[0]))
    with pytest.raises(AttributeError):
        delattr(sample, names[0])
    with pytest.raises(AttributeError):
        sample.not_a_field = 1
    assert _fields(sample, names) == _fields(twin, names)


@pytest.mark.parametrize(
    "left, right",
    [
        (Atom("p"), NumFluent("p")),
        (Atom("on", ("a", "b")), NumFluent("on", ("a", "b"))),
        (TypeDecl("a"), ObjectDecl("a")),
        (Parameter("?x"), ObjectDecl("?x")),
        (NumAdd(FUEL, FUEL), NumSub(FUEL, FUEL)),
        (And((ON,)), Or((ON,))),
        (Applied("x"), Location("x")),
    ],
)
def test_equality_is_type_strict(left, right):
    assert _fields(left, ("__class__",)) != _fields(right, ("__class__",))
    assert left != right and right != left
    assert left.__eq__(right) is NotImplemented
    assert len({left, right}) == 2


def test_defaults_and_keywords():
    assert Atom("p") == Atom("p", ()) == Atom(fluent="p") == Atom(args=(), fluent="p")
    assert ProblemInstance(_domain()).init == Assignment()
    assert ProblemInstance(_domain()).goal == And(())
    assert Entity("apple", "item").location == Location("free")
    assert ToolCall("c1", "ask").arguments is not ToolCall("c2", "ask").arguments
    assert Transcript().exchanges is not Transcript().exchanges
    assert PipelineEvent("chat").data is not PipelineEvent("chat").data
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Atom("p", (), "extra")
    with pytest.raises(TypeError):
        Atom("p", colour="red")


@pytest.mark.parametrize("default", [[], {}, set()], ids=["list", "dict", "set"])
def test_mutable_default_is_refused(default):
    # Shared by every instance, as a class attribute, so refused when the
    # class is made.
    with pytest.raises(TypeError, match="default would be shared by every instance"):
        type("Bag", (Value,), {"__annotations__": {"items": "list"}, "items": default})


def test_annotations_kept_in_annotate_are_refused():
    # A subclass compiled without ``from __future__ import annotations`` on
    # Python 3.14 keeps its annotations in ``__annotate__`` alone; read as
    # no fields, every instance would be equal.
    with pytest.raises(TypeError, match="from __future__ import annotations"):
        type("Point", (Value,), {"__annotate__": lambda format: {"x": int}})


def test_replace_reruns_post_init():
    other = ActionSchema("pick")
    domain = DomainModel("d", actions=(other, STACK))
    assert [a.name for a in domain.actions] == ["pick", "stack"]
    reversed_domain = replace(domain, actions=(STACK, other), types=(TypeDecl("z"), TypeDecl("a")))
    assert [a.name for a in reversed_domain.actions] == ["pick", "stack"]
    assert [t.name for t in reversed_domain.types] == ["a", "z"]
    problem = replace(_problem(), objects=(ObjectDecl("c"), ObjectDecl("b")))
    assert [o.name for o in problem.objects] == ["b", "c"]
    world = replace(WorldState((Entity("b", "item"),)), entities=(Entity("z", "item"), Entity("c", "item")))
    assert [e.id for e in world.entities] == ["c", "z"]
    with pytest.raises(ValueError):
        replace(SolveConfig(), strategy="dfs")
    with pytest.raises(ValueError):
        replace(PipelineConfig(), critic_threshold=2.0)
    with pytest.raises(TypeError):
        replace(ON, colour="red")


def test_replace_changes_only_the_named_fields():
    moved = replace(ON, args=("b", "a"))
    assert moved == Atom("on", ("b", "a")) and ON == Atom("on", ("a", "b"))
    log = ExecutionLog()
    assert replace(log, status="stopped-at-2").records is log.records


def test_cached_attributes_are_ignored():
    domain, problem = _domain(), _problem()
    task = ground(problem)
    before = [(repr(v), hash(v)) for v in (domain, problem)] + [repr(task)]
    assert not domain.is_subtype("block", "thing")
    assert "_parents" in vars(domain)
    jsonio.dumps({"domain": domain, "problem": problem})
    assert "_json_text" in vars(domain) and "_json_text" in vars(problem)
    assert task.relaxed is task.relaxed
    assert blind(task, task.init_bools, ()) != 0
    after = [(repr(v), hash(v)) for v in (domain, problem)] + [repr(task)]
    assert after == before
    assert domain == _domain() and problem == _problem()
    assert "_parents" not in vars(replace(domain))
    assert "_json_text" not in vars(replace(problem))
    fresh = ground(_problem())
    assert _fields(fresh, ("atoms", "actions", "init_bools", "goal")) == _fields(task, ("atoms", "actions", "init_bools", "goal"))


# ---------------------------------------------------------------- JSON form

# Each record type reads itself; only the three node unions, whose class
# is the one the "op" key names, keep a function. The types nested in these
# (TypeDecl, Exchange, Entity and the like) are read inside them.
_DECODERS = {
    **{cls: cls.from_json for cls in (
        FluentDecl, ActionSchema, DomainModel, ObjectDecl, Assignment, ProblemInstance,
        ToolCall, AgentMessage, Transcript, MemoryEntry, InstructionList, WorldState, TaskSpec,
    )},
    **dict.fromkeys((Atom, And, Or, Not, Comparison), expression_from_json),
    **dict.fromkeys((NumConst, NumFluent, NumAdd, NumSub), term_from_json),
    **dict.fromkeys((SetEffect, NumericEffect), effect_from_json),
}

# More samples, for the keys that the ones above leave out or keep at their
# defaults.
_MORE = [
    FluentDecl("fuel", (Parameter("?t", "truck"),), "numeric"),
    And(()),
    Comparison("=", NumAdd(FUEL, NumConst(Fraction(-7, 4))), NumSub(FUEL, FUEL)),
    NumericEffect("assign", FUEL, NumConst(Fraction(0))),
    AgentMessage("tool-result", "done", tool_call_id="c1"),
    AgentMessage("user"),
    Transcript([Exchange("ab12", _message()), Exchange("cd34", AgentMessage("assistant", "fine"))]),
    SolveResult("unsolvable", None, 7),
    PipelineResult(_problem(), EventLog(), [UpstreamRequest("goal", "missing_objects", {"objects": "c"}, "applied")], "", 4),
    WorldState((Entity("apple", "item", Location("in", "fridge"), is_heated=True), Entity("fridge", "container")), "", (None, None)),
]

_SAMPLES = [sample for sample, _, _ in FROZEN] + _MORE

# The record types written to a run directory or a fixture.
_WRITTEN = {
    PipelineResult, ProblemInstance, DomainModel, SolveResult, InstructionList,
    ExecutionLog, ValidatorVerdict, WorldState, Transcript, MemoryEntry,
}


def _json_ids(samples):
    return [f"{type(sample).__name__}-{i}" for i, sample in enumerate(samples)]


_CODEC = [sample for sample in _SAMPLES if type(sample) in _DECODERS]


@pytest.mark.parametrize("sample", _CODEC, ids=_json_ids(_CODEC))
def test_json_round_trip(sample):
    decoded = _DECODERS[type(sample)](json.loads(json.dumps(sample.to_json())))
    assert type(decoded) is type(sample)
    assert repr(decoded) == repr(sample)
    assert decoded == sample


def test_codec_samples_cover_every_decoder_and_written_type():
    assert set(_DECODERS) <= {type(sample) for sample in _CODEC}
    assert {type(sample) for sample in _SAMPLES} >= _WRITTEN


@pytest.mark.parametrize("sample", _SAMPLES, ids=_json_ids(_SAMPLES))
def test_dumps_writes_a_record_as_its_json_form(sample):
    """`jsonio.dumps` writes a record from the same pairs as ``to_json``, so
    the two cannot drift apart; a record holding something JSON has no form
    for fails the same way through both."""
    try:
        expected = json.dumps(sample.to_json(), indent=2) + "\n"
    except TypeError:
        assert type(sample) not in _WRITTEN
        with pytest.raises(TypeError):
            jsonio.dumps(sample)
    else:
        assert jsonio.dumps(sample) == expected
        assert jsonio.dumps([sample, {"nested": sample}]) == json.dumps([sample.to_json(), {"nested": sample.to_json()}], indent=2) + "\n"


def _record_types(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_json_declarations_name_attributes():
    for cls in _record_types():
        written = cls._json_keys or cls._fields
        for name in cls._json_keys + tuple(cls._json_omit):
            assert name in cls._fields or hasattr(cls, name), (cls.__qualname__, name)
        assert set(cls._json_omit) <= set(written), cls.__qualname__
        assert set(cls._fields) - set(written) <= {"failure_kind"}, cls.__qualname__


def test_json_form_pins_its_exceptions():
    assert ON.to_json() == {"op": "atom", "fluent": "on", "args": ["a", "b"]}
    assert NumConst(Fraction(3, 2)).to_json() == {"op": "const", "value": "3/2"}
    assert FluentDecl("clear").to_json() == {"name": "clear", "parameters": [], "kind": "boolean"}
    assert list(_domain().to_json()) == ["name", "requirements", "types", "fluents", "actions"]
    assert list(_problem().to_json()) == ["name", "domain", "objects", "init", "goal"]
    assert Assignment.create([ON], {FUEL: Fraction(1, 3)}).to_json() == {
        "booleans": [ON.to_json()],
        "numerics": [{"fluent": "fuel", "args": ["t"], "value": "1/3"}],
    }
    assert Plan((_step(),)).to_json() == {"steps": [{"name": "stack", "args": ["a"]}], "cost": 1}
    assert SolveResult("unsolvable").to_json() == {"status": "unsolvable", "nodes_expanded": 0}
    assert AgentMessage("user", "hi").to_json() == {"role": "user", "content": "hi"}
    assert AgentMessage("assistant", "ok", []).to_json() == {"role": "assistant", "content": "ok"}
    assert ToolParam("q", "why").to_json() == {"name": "q", "type": "string", "required": True, "description": "why"}
    assert Transcript().to_json() == {"version": 1, "exchanges": []}
    assert ExecutionLog().to_json() == {"status": "completed", "records": []}
    assert list(PipelineResult(None, EventLog()).to_json()) == ["status", "problem", "requests", "gateway_calls", "error", "events"]
    assert InstructionList(()).to_json() == {"instructions": []}
    assert list(WorldState(()).to_json()) == ["agent_at", "hands", "entities"]
    assert Entity("apple", "item").to_json()["class"] == "item"


def test_json_decode_declarations_name_fields_in_order():
    """`Value.from_json` builds a value from its keys' values by position,
    so a class's kind table lists a prefix of its fields, in field order."""
    renamed = {(Entity, "class"): "cls"}  # the JSON key of Entity.cls
    tables = [cls for cls in _record_types() if cls._json_kinds or cls._json_defaults]
    assert {TypeDecl, DomainModel, ProblemInstance, ModifyAction, AgentMessage, Entity, WorldState, TaskSpec} <= set(tables)
    for cls in tables:
        names = [renamed.get((cls, key), key) for key in cls._json_kinds]
        assert names == list(cls._fields[: len(names)]), cls.__qualname__
        assert set(cls._json_defaults) <= set(cls._json_kinds), cls.__qualname__


def test_a_class_without_kinds_has_no_reader():
    with pytest.raises(TypeError, match="declares no _json_kinds"):
        And.from_json({"op": "and", "children": []})


def _key_paths(node: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of every object key and list item in the JSON value ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _key_paths(child, path + (key,))


_REPLACEMENTS = (None, 1, True, "x", [], {}, [1], 2.5)
_DROP = object()


def _mutants(data: dict) -> Iterator[tuple[tuple, Any, dict]]:
    for path in _key_paths(data):
        for replacement in (_DROP, *_REPLACEMENTS):
            mutant = copy.deepcopy(data)
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            if replacement is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
            yield path, replacement, mutant


@pytest.mark.parametrize("sample", _CODEC, ids=_json_ids(_CODEC))
def test_mutated_keys_decode_or_raise_decode_error(sample):
    """Each key or list item of the sample's JSON, at any depth, dropped or
    replaced by a value of each JSON type: the decoder reads it or refuses it with
    `IRDecodeError`, and raises nothing else. A transcript without its
    version is refused as a `TranscriptError`."""
    decode = _DECODERS[type(sample)]
    escaped = []
    for path, replacement, mutant in _mutants(json.loads(json.dumps(sample.to_json()))):
        expected = TranscriptError if (type(sample), path, replacement) == (Transcript, ("version",), _DROP) else IRDecodeError
        try:
            decode(mutant)
        except expected:
            pass
        except Exception as exc:  # noqa: BLE001  (any other escape is the failure)
            escaped.append((path, replacement, repr(exc)))
    assert escaped == []


def test_the_sweep_reaches_nested_keys():
    paths = set(_key_paths(Transcript([Exchange("ab12", _message())]).to_json()))
    assert ("exchanges", 0, "response", "tool_calls", 0, "arguments", "q") in paths
    assert ("exchanges", 0) in paths
    assert sum(1 for sample in _CODEC for _ in _mutants(sample.to_json())) == 3240


@pytest.mark.parametrize(
    "decode, data",
    [
        (Transcript.from_json, {"version": True, "exchanges": []}),
        (InstructionList.from_json, {"instructions": [{"index": True, "text": "Stack a.", "step": {"name": "stack"}}]}),
        (MemoryEntry.from_json, {"summary": "s", "embedding": [True, False]}),
        (MemoryEntry.from_json, {"summary": "s", "embedding": [1, 0], "timestamp": True}),
    ],
    ids=["transcript-version", "instruction-index", "memory-embedding", "memory-timestamp"],
)
def test_a_json_true_is_no_int(decode, data):
    with pytest.raises(IRDecodeError, match="must"):
        decode(data)


def test_a_bool_passes_only_where_the_kind_names_bool():
    data = {"flag": True}
    assert field(data, "flag", bool) is True
    assert field(data, "flag", (bool, int)) is True
    for kind in (int, float, (int, float), (str, type(None))):
        with pytest.raises(IRDecodeError, match="'flag' must be"):
            field(data, "flag", kind)
    with pytest.raises(IRDecodeError, match="'flags' must hold only int"):
        field({"flags": [1, False]}, "flags", [int])
    assert field({"flags": [1, False]}, "flags", [(int, bool)]) == (1, False)


def test_decode_defaults_that_differ_from_the_class():
    # Required, although the class has a default: an action or problem read
    # from an agent reply must state its precondition or goal.
    with pytest.raises(IRDecodeError, match="missing field 'precondition'"):
        ActionSchema.from_json({"name": "stack"})
    with pytest.raises(IRDecodeError, match="missing field 'goal'"):
        ProblemInstance.from_json({"domain": {"name": "blocks"}})
    # Optional, with a default the class does not have.
    assert ModifyAction.from_json({"action": "stack"}, "planner") == ModifyAction("stack", None, None, "planner")
    assert TaskSpec.from_json({}).name == "task"
    assert Location.from_json({}) == Location("free")
    assert Transcript.from_json({"version": 1}).exchanges == []
    assert AgentMessage.from_json({"role": "user"}).to_json() == {"role": "user", "content": ""}
    assert ToolCall.from_json({"id": "c1", "name": "ask"}).arguments == {}
