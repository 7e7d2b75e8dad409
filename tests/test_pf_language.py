"""Tests for the PF+=2 lexer, parser, tables and rulesets."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import PFEvalError, PFLexError, PFParseError
from repro.pf.ast_nodes import (
    ACTION_BLOCK,
    ACTION_PASS,
    AddressLiteral,
    AnyAddress,
    DictAccess,
    Literal,
    MacroRef,
    TableRef,
)
from repro.pf.lexer import WORD, tokenize
from repro.pf.parser import parse_ruleset
from repro.pf.ruleset import RulesetLoader, build_ruleset
from repro.pf.tables import TableSet
from repro.workloads import paper_configs


class TestLexer:
    def test_words_and_punctuation(self):
        tokens = tokenize("pass from <lan> with eq(@src[name], skype)")
        kinds = [t.type for t in tokens]
        assert kinds[-1] == "EOF"
        words = [t.value for t in tokens if t.type == WORD]
        assert words == ["pass", "from", "lan", "with", "eq", "src", "name", "skype"]

    def test_comments_stripped(self):
        tokens = tokenize("pass all # allow everything\nblock all")
        words = [t.value for t in tokens if t.type == WORD]
        assert words == ["pass", "all", "block", "all"]

    def test_continuations_joined(self):
        tokens = tokenize("pass from any \\\n    to any")
        words = [t.value for t in tokens if t.type == WORD]
        assert words == ["pass", "from", "any", "to", "any"]

    def test_quoted_strings_keep_spaces(self):
        tokens = tokenize('allowed = "{ http ssh }"')
        assert tokens[2].type == "STRING"
        assert tokens[2].value == "{ http ssh }"

    def test_unterminated_string_rejected(self):
        with pytest.raises(PFLexError):
            tokenize('macro = "unterminated')

    def test_unexpected_character_rejected(self):
        with pytest.raises(PFLexError) as info:
            tokenize("pass from any ^ to any")
        assert info.value.line == 1

    def test_words_allow_dashes_dots_slashes(self):
        words = [t.value for t in tokenize("MS08-067 192.168.0.0/24 skype.com") if t.type == WORD]
        assert words == ["MS08-067", "192.168.0.0/24", "skype.com"]


class TestParserStatements:
    def test_table_definition(self):
        ruleset = parse_ruleset("table <int_hosts> { <lan> <server> 10.0.0.0/8 }")
        table = ruleset.tables()["int_hosts"]
        assert table.items == (TableRef("lan"), TableRef("server"), AddressLiteral("10.0.0.0/8"))

    def test_dict_definition(self):
        ruleset = parse_ruleset("dict <pubkeys> { research : abc123 admin : def456 }")
        assert ruleset.dicts()["pubkeys"].entries == {"research": "abc123", "admin": "def456"}

    def test_macro_definition(self):
        ruleset = parse_ruleset('approved = "{ http ssh }"')
        assert ruleset.macros() == {"approved": "{ http ssh }"}

    def test_rule_with_everything(self):
        text = ("pass quick from !<lan> port 80 with eq(@src[name], skype) "
                "to 10.0.0.0/8 port https with member(@dst[groupID], users) keep state")
        rule = parse_ruleset(text).rules()[0]
        assert rule.action == ACTION_PASS
        assert rule.quick and rule.keep_state
        assert rule.src.negated and rule.src.port == 80
        assert isinstance(rule.src.address, TableRef)
        assert isinstance(rule.dst.address, AddressLiteral)
        assert rule.dst.port == 443
        assert [c.name for c in rule.conditions] == ["eq", "member"]

    def test_block_all(self):
        rule = parse_ruleset("block all").rules()[0]
        assert rule.action == ACTION_BLOCK
        assert rule.src.is_any() and rule.dst.is_any()

    def test_multiple_rules_without_newlines(self):
        # requirements values arrive as one logical line
        ruleset = parse_ruleset(
            "block all pass all with eq(@src[name], research-app) with eq(@dst[name], research-app)"
        )
        rules = ruleset.rules()
        assert [r.action for r in rules] == [ACTION_BLOCK, ACTION_PASS]
        assert len(rules[1].conditions) == 2

    def test_function_argument_kinds(self):
        rule = parse_ruleset(
            'pass all with verify(@src[req-sig], $key, <servers>, literal, "quoted value", *@src[userID])'
        ).rules()[0]
        args = rule.conditions[0].args
        assert isinstance(args[0], DictAccess) and args[0].key == "req-sig"
        assert isinstance(args[1], MacroRef)
        assert args[2].name == "servers"
        assert isinstance(args[3], Literal) and not args[3].quoted
        assert isinstance(args[4], Literal) and args[4].quoted
        assert isinstance(args[5], DictAccess) and args[5].concatenated

    def test_named_ports(self):
        rule = parse_ruleset("pass from any port http to any port smtp").rules()[0]
        assert rule.src.port == 80 and rule.dst.port == 25

    def test_from_port_without_address(self):
        rule = parse_ruleset("pass from port http to any").rules()[0]
        assert isinstance(rule.src.address, AnyAddress)
        assert rule.src.port == 80

    @pytest.mark.parametrize("text", [
        "pass from <lan",                   # unterminated table ref
        "table <x> { 1.2.3.4",              # unterminated table
        "dict <k> { a }",                    # missing colon
        "pass from any port zzz to any",     # unknown service
        "pass from any port 99999 to any",   # port out of range
        "pass all with eq(@src[name], skype",  # unterminated call
        "frobnicate all",                    # unknown statement
        "= value",                           # missing macro name
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(PFParseError):
            parse_ruleset(text)

    def test_round_trip_through_str(self):
        text = "block all with eq(@src[name], skype) with lt(@src[version], 200)"
        rule = parse_ruleset(text).rules()[0]
        reparsed = parse_ruleset(str(rule)).rules()[0]
        assert str(reparsed) == str(rule)

    def test_rule_text_is_rendered_once_and_follows_edits(self):
        rule = parse_ruleset("pass from <lan> to any port 80 with eq(@src[name], http)").rules()[0]
        text = str(rule)
        assert str(rule) is text
        rule.keep_state = True
        assert str(rule) == text + " keep state"
        rule.keep_state = False
        assert str(rule) == text

    @given(st.sampled_from(["pass", "block"]), st.sampled_from(["", "quick "]),
           st.sampled_from(["all", "from any to any", "from <lan> to !<lan>"]),
           st.sampled_from(["", " keep state"]))
    def test_property_simple_rules_parse(self, action, quick, body, state):
        text = f"{action} {quick}{body}{state}"
        rule = parse_ruleset(text).rules()[0]
        assert rule.action == action
        assert rule.quick == bool(quick.strip())
        assert rule.keep_state == bool(state.strip())


class TestPaperListingsParse:
    def test_section_33_example(self):
        ruleset = parse_ruleset(paper_configs.SECTION_33_EXAMPLE)
        assert len(ruleset.rules()) == 2
        assert "mail-server" in ruleset.tables()

    def test_figure2_files(self):
        loader = RulesetLoader()
        loader.add_files(paper_configs.figure2_control_files())
        ruleset = loader.build()
        assert len(ruleset.rules()) == 7
        assert set(ruleset.tables()) == {"server", "lan", "int_hosts", "skype_update"}
        assert ruleset.macros()["allowed"] == "{ http ssh }"

    def test_figure5_files(self):
        files = paper_configs.figure5_research_control("10001.abcdef", "10001.123456")
        ruleset = build_ruleset(files)
        assert ruleset.dicts()["pubkeys"].entries["research"] == "10001.abcdef"
        assert ruleset.dicts()["pubkeys"].entries["admin"] == "10001.123456"
        delegation_rule = ruleset.rules()[-1]
        assert {c.name for c in delegation_rule.conditions} == {"member", "allowed", "verify"}

    def test_figure7_files(self):
        ruleset = build_ruleset(paper_configs.figure7_secur_control("10001.abcdef"))
        rule = ruleset.rules()[-1]
        assert rule.is_pass
        assert [c.name for c in rule.conditions] == ["eq", "allowed", "verify"]

    def test_figure8_files(self):
        ruleset = build_ruleset(paper_configs.figure8_control_files())
        rule = ruleset.rules()[-1]
        assert "includes" in {c.name for c in rule.conditions}

    def test_requirements_snippets_parse(self):
        for text in (paper_configs.SKYPE_REQUIREMENTS,
                     paper_configs.RESEARCH_REQUIREMENTS,
                     paper_configs.THUNDERBIRD_REQUIREMENTS):
            assert parse_ruleset(text).rules()


class TestTables:
    def test_resolution_and_membership(self):
        ruleset = parse_ruleset(
            "table <server> { 192.168.1.1 }\n"
            "table <lan> { 192.168.0.0/24 }\n"
            "table <int_hosts> { <lan> <server> }\n"
        )
        tables = TableSet.from_definitions(ruleset.tables())
        assert tables.contains("int_hosts", "192.168.0.77")
        assert tables.contains("int_hosts", "192.168.1.1")
        assert not tables.contains("int_hosts", "192.168.2.1")

    def test_unknown_table_rejected(self):
        with pytest.raises(PFEvalError):
            TableSet().resolve("ghost")

    def test_cycle_detected(self):
        ruleset = parse_ruleset("table <a> { <b> }\ntable <b> { <a> }")
        tables = TableSet.from_definitions(ruleset.tables())
        with pytest.raises(PFEvalError):
            tables.resolve("a")

    def test_add_table_directly(self):
        tables = TableSet()
        tables.add_table("lan", ["10.0.0.0/8", "192.168.0.1"])
        assert tables.contains("lan", "10.1.2.3")
        assert tables.contains("lan", "192.168.0.1")

    def test_merge(self):
        first = TableSet()
        first.add_table("a", ["10.0.0.0/8"])
        second = TableSet()
        second.add_table("b", ["192.168.0.0/16"])
        first.merge(second)
        assert first.contains("b", "192.168.1.1")

    def test_non_address_membership_is_false(self):
        tables = TableSet()
        tables.add_table("lan", ["10.0.0.0/8"])
        assert not tables.resolve("lan").contains("not-an-ip")


class TestRulesetLoader:
    def test_alphabetical_concatenation(self):
        loader = RulesetLoader()
        loader.add_file("99-footer", "block all")
        loader.add_file("00-header", "pass all")
        assert loader.file_names() == ["00-header.control", "99-footer.control"]
        rules = loader.build().rules()
        assert [r.action for r in rules] == ["pass", "block"]

    def test_replacing_a_file(self):
        loader = RulesetLoader()
        loader.add_file("00-a", "pass all")
        loader.add_file("00-a", "block all")
        assert len(loader) == 1
        assert loader.build().rules()[0].action == "block"

    def test_remove_file(self):
        loader = RulesetLoader()
        loader.add_file("50-vendor", "pass all")
        assert loader.remove_file("50-vendor")
        assert not loader.remove_file("50-vendor")
        assert len(loader.build().rules()) == 0

    def test_load_directory(self, tmp_path):
        (tmp_path / "00-a.control").write_text("block all\n")
        (tmp_path / "50-b.control").write_text("pass all\n")
        (tmp_path / "notes.txt").write_text("ignored\n")
        loader = RulesetLoader()
        assert loader.load_directory(str(tmp_path)) == 2
        assert [r.action for r in loader.build().rules()] == ["block", "pass"]

    def test_load_missing_directory(self, tmp_path):
        from repro.exceptions import PolicyError
        with pytest.raises(PolicyError):
            RulesetLoader().load_directory(str(tmp_path / "missing"))
