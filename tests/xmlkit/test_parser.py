"""The streaming XML parser."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlkit.parser import (
    COMMENT,
    DECLARATION,
    END,
    PI,
    START,
    TEXT,
    ContentHandler,
    push_parse,
    tokens,
)


def events(text):
    return list(tokens(text))


class TestBasicParsing:
    def test_single_empty_element(self):
        assert events("<a/>") == [(START, "a", {}), (END, "a", None)]

    def test_element_with_text(self):
        got = events("<a>hello</a>")
        assert got == [
            (START, "a", {}), (TEXT, "hello", None), (END, "a", None),
        ]

    def test_nested_elements(self):
        got = events("<a><b/><c/></a>")
        names = [value for kind, value, _ in got if kind == START]
        assert names == ["a", "b", "c"]

    def test_attributes_double_and_single_quotes(self):
        got = events("""<a x="1" y='two'/>""")
        assert got[0] == (START, "a", {"x": "1", "y": "two"})

    def test_attribute_entities_resolved(self):
        got = events('<a x="&lt;&amp;&gt;"/>')
        assert got[0][2]["x"] == "<&>"

    def test_text_entities_resolved(self):
        got = events("<a>&lt;tag&gt;</a>")
        assert got[1] == (TEXT, "<tag>", None)

    def test_xml_declaration(self):
        got = events('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert got[0] == (DECLARATION, "1.0", ("UTF-8", None))

    def test_comment(self):
        got = events("<a><!-- note --></a>")
        assert (COMMENT, " note ", None) in got

    def test_comment_before_root(self):
        got = events("<!-- head --><a/>")
        assert got[0] == (COMMENT, " head ", None)

    def test_processing_instruction(self):
        got = events('<?pi some data?><a/>')
        assert got[0] == (PI, "pi", "some data")

    def test_cdata_section(self):
        got = events("<a><![CDATA[<raw> & stuff]]></a>")
        assert got[1] == (TEXT, "<raw> & stuff", None)

    def test_doctype_skipped(self):
        got = events("<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>")
        assert got == [(START, "a", {}), (END, "a", None)]

    def test_whitespace_between_elements_is_characters(self):
        got = events("<a> <b/> </a>")
        texts = [value for kind, value, _ in got if kind == TEXT]
        assert texts == [" ", " "]

    def test_namespaced_names(self):
        got = events('<soap:Envelope xmlns:soap="ns"><soap:Body/>'
                     "</soap:Envelope>")
        assert got[0][1] == "soap:Envelope"


class TestWellFormedness:
    @pytest.mark.parametrize("bad", [
        "<a>",                      # unclosed
        "<a></b>",                  # mismatched
        "</a>",                     # end without start
        "<a/><b/>",                 # two roots
        "text only",                # no root
        "",                         # empty
        "<a x=1/>",                 # unquoted attribute
        '<a x="1" x="2"/>',         # duplicate attribute
        "<a><!-- unterminated</a>",
        "<a><![CDATA[open</a>",
        '<a x="<"/>',               # literal < in attribute
        "<a>&unknown;</a>",         # unknown entity
        "<1bad/>",                  # bad name start
    ])
    def test_rejects(self, bad):
        with pytest.raises(XmlSyntaxError):
            events(bad)

    def test_error_carries_location(self):
        try:
            events("<a>\n  <b></c>\n</a>")
        except XmlSyntaxError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected XmlSyntaxError")


class _Recorder(ContentHandler):
    def __init__(self):
        self.calls = []

    def start_element(self, name, attrs):
        self.calls.append(("start", name, dict(attrs)))

    def end_element(self, name):
        self.calls.append(("end", name))

    def characters(self, text):
        self.calls.append(("chars", text))


class TestPushParse:
    def test_drives_handler(self):
        recorder = _Recorder()
        push_parse('<a x="1"><b>t</b></a>', recorder)
        assert recorder.calls == [
            ("start", "a", {"x": "1"}),
            ("start", "b", {}),
            ("chars", "t"),
            ("end", "b"),
            ("end", "a"),
        ]

    def test_default_handler_ignores_everything(self):
        push_parse("<a><b/>text</a>", ContentHandler())
