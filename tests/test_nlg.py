import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapex
from mapex import build_abstraction, get_domain, simulate
from mapex.nlg import PhraseMap, format_dnf, render
from mapex.query import Query, answer_what, answer_when, answer_whynot
from mapex.errors import PhraseMapError

RESCUE = "rescue_victim"
REMOVE = "remove_obstacle"
FIGHT = "fight_fire"


@pytest.fixture(scope="module")
def phrases(sr3_domain):
    return PhraseMap.from_domain(sr3_domain)


def when_answer(domain, m, agent, action, method="withrf"):
    q = Query(kind="when", agents=(agent,), method=method,
              actions=((agent, action),))
    return answer_when(q, m, domain)


class TestWhenSentences:
    def test_table_style_rescue_sentence(self, sr3_domain, sr3_abstraction, phrases):
        answer = when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE)
        assert render(answer, phrases) == (
            "UAV rescues the victim when UAV detects the victim and UGV_1 "
            "detects the victim, or UAV detects the victim and UGV_2 detects "
            "the victim."
        )

    def test_never_sentence(self, sr3_domain, sr3_abstraction, phrases):
        answer = when_answer(sr3_domain, sr3_abstraction, "UGV_1", FIGHT, "norf")
        assert render(answer, phrases) == (
            "UGV_1 never fights the fire under the policy."
        )

    def test_agents_with_different_actions(self, sr3_domain, sr3_abstraction, phrases):
        # each agent gets its own verb, and the two subjects join with "and"
        q = Query(kind="when", agents=("UAV", "UGV_1"), method="withrf",
                  actions=(("UAV", RESCUE), ("UGV_1", REMOVE)))
        answer = answer_when(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == (
            "UAV rescues the victim and UGV_1 removes the obstacle when UAV detects "
            "the victim and UGV_1 detects the victim, UAV detects the victim and UGV_2 "
            "detects the victim, or UAV has rescued the victim and UGV_1 has not "
            "removed the obstacle."
        )

    def test_always_sentence(self, sr3_domain, sr3_abstraction, phrases):
        # move names no relevant feature: no variables, and the DNF is TRUE
        answer = when_answer(sr3_domain, sr3_abstraction, "UAV", "move")
        assert answer.space.n_variables == 0
        assert render(answer, phrases) == "UAV always moves."
        assert format_dnf(answer) == "TRUE"

    def test_snapshot_stability(self, sr3_domain, sr3_abstraction, phrases):
        first = render(when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE), phrases)
        second = render(when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE), phrases)
        assert first == second

    def test_clause_count_matches_or_separators(self, sr3_domain,
                                                sr3_abstraction, phrases):
        for agent, action, method in [
            ("UAV", RESCUE, "withrf"), ("UAV", RESCUE, "norf"),
            ("UGV_1", REMOVE, "withrf"), ("UAV", FIGHT, "withrf"),
        ]:
            answer = when_answer(sr3_domain, sr3_abstraction, agent, action, method)
            if answer.dnf.is_never or answer.dnf.is_always:
                continue
            text = render(answer, phrases)
            assert text.count(", or ") + 1 == answer.n_clauses


class TestWhynotSentences:
    def test_table_style_obstacle_sentence(self, sr3_domain, sr3_abstraction,
                                           phrases):
        q = Query(kind="whynot", agents=("UGV_1", "UGV_2"), method="withrf",
                  actions=(("UGV_1", REMOVE), ("UGV_2", REMOVE)),
                  state=(1, 0, 0))
        answer = answer_whynot(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == (
            "UGV_1 and UGV_2 don't remove the obstacle in this state because "
            "UGV_1 does not detect the obstacle and UGV_2 does not detect "
            "the obstacle."
        )

    def test_never_contrast_sentence(self, sr3_domain, sr3_abstraction, phrases):
        q = Query(kind="whynot", agents=("UGV_1",), method="norf",
                  actions=(("UGV_1", FIGHT),), state=(0, 0, 0))
        answer = answer_whynot(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == (
            "UGV_1 never fights the fire under the policy."
        )


class TestWhatSentences:
    def test_withrf_most_likely(self, sr3_domain, sr3_abstraction, phrases):
        q = Query(kind="what", agents=("UAV",), method="withrf",
                  predicates=("victim_detect",))
        answer = answer_what(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == (
            "UAV is most likely to rescue the victim when it detects the victim."
        )

    def test_norf_action_list(self, sr3_domain, sr3_abstraction, phrases):
        q = Query(kind="what", agents=("UAV",), method="norf",
                  predicates=("victim_detect",))
        answer = answer_what(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == (
            "UAV can rescue the victim, move, or wait when it detects the victim."
        )

    def test_no_occurrence_sentence(self, sr3_domain, sr3_abstraction, phrases):
        q = Query(kind="what", agents=("UAV",), method="withrf",
                  predicates=("obstacle_complete",))
        answer = answer_what(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == "No observed state satisfies this condition."

    @pytest.mark.parametrize("method, predicate, sentence", [
        ("withrf", "victim_complete",
         "UAV takes no relevant action when it has rescued the victim."),
        ("norf", "fire_complete", "UAV takes no action when it has extinguished the fire."),
    ], ids=["withrf", "norf"])
    def test_no_action_sentence(self, sr3_domain, sr3_abstraction, phrases, method,
                                predicate, sentence):
        q = Query(kind="what", agents=("UAV",), method=method, predicates=(predicate,))
        answer = answer_what(q, sr3_abstraction, sr3_domain)
        assert render(answer, phrases) == sentence

    def test_three_agent_list(self):
        domain = get_domain("sr4")
        m = build_abstraction(simulate("sr4", episodes=30, seed=42), domain.schema)
        q = Query(kind="what", agents=("UAV", "UGV_1", "UGV_2"), method="norf",
                  predicates=("victim_detect",))
        assert render(answer_what(q, m, domain), PhraseMap.from_domain(domain)) == (
            "UAV can rescue the victim; UGV_1 can move, or wait; and UGV_2 can rescue "
            "the victim when they detect the victim."
        )

    def test_plural_condition(self, sr3_domain, sr3_abstraction, phrases):
        q = Query(kind="what", agents=("UGV_1", "UGV_2"), method="norf",
                  predicates=("obstacle_detect",))
        answer = answer_what(q, sr3_abstraction, sr3_domain)
        text = render(answer, phrases)
        assert text.endswith("when they detect the obstacle.")
        assert "UGV_1 can" in text and "UGV_2 can" in text


class TestDnfDump:
    def test_format_dnf(self, sr3_domain, sr3_abstraction):
        answer = when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE)
        assert format_dnf(answer) == (
            "(UAV.victim_detect & UGV_1.victim_detect) | "
            "(UAV.victim_detect & UGV_2.victim_detect)"
        )

    def test_format_never_and_always(self, sr3_domain, sr3_abstraction):
        never = when_answer(sr3_domain, sr3_abstraction, "UGV_1", FIGHT, "norf")
        assert format_dnf(never) == "FALSE"


class TestPhraseMapErrors:
    def test_missing_action_phrase(self, sr3_domain, sr3_abstraction, phrases):
        broken = PhraseMap(agents=phrases.agents, predicates=phrases.predicates,
                           actions={})
        answer = when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE)
        with pytest.raises(PhraseMapError) as exc:
            render(answer, broken)
        assert RESCUE in str(exc.value)

    def test_missing_predicate_phrase(self, sr3_domain, sr3_abstraction, phrases):
        broken = PhraseMap(agents=phrases.agents, predicates={},
                           actions=phrases.actions)
        answer = when_answer(sr3_domain, sr3_abstraction, "UAV", RESCUE)
        with pytest.raises(PhraseMapError):
            render(answer, broken)


class TestSoundnessChecksSurviveOptimize:
    def test_empty_whynot_dnf_raises_under_optimize(self):
        # an empty why-not DNF has no sentence; the check must still raise
        # with assert statements compiled out
        code = (
            "from mapex import get_domain\n"
            "from mapex.nlg import PhraseMap, render_whynot\n"
            "from mapex.query import ConditionAnswer, LiteralDNF, Query\n"
            "d = get_domain('sr3')\n"
            "q = Query('whynot', ('UGV_1',), 'norf', (('UGV_1', 'remove_obstacle'),),\n"
            "          state=(0, 0, 0))\n"
            "a = ConditionAnswer(q, LiteralDNF(()), None, frozenset(), frozenset())\n"
            "try:\n"
            "    render_whynot(a, PhraseMap.from_domain(d))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(mapex.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src),
                             timeout=60)
        assert run.stdout == "why-not DNF cannot be empty\n", run.stderr
