"""The tokenizer's tag fast path against three yardsticks: stdlib
``xml.parsers.expat`` (the parser the paper used, here a test-only
oracle) on generated documents, the messages and positions the
character-level scanner has always reported on malformed input, and a
wall-clock bound on input built to make a regex backtrack."""

import time
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlSyntaxError
from repro.xmlkit.escape import unescape
from repro.xmlkit.parser import (
    COMMENT,
    END,
    PI,
    START,
    TEXT,
    ContentHandler,
    push_parse,
    tokens,
)
from repro.xmlkit.tree import parse_tree
from repro.xmlkit.writer import serialize

# -- generated documents ------------------------------------------------------------

# Where this tokenizer and expat agree by construction.  Expat
# normalises raw "\r" in text and raw tab/newline/"\r" in attribute
# values; this tokenizer hands them through (the wire format relies on
# it), so those characters appear only as character references.
_names = st.from_regex(r"[A-Za-wyz_][A-Za-z0-9_.\-]{0,6}", fullmatch=True)
_space = st.text(alphabet=" \t\n", max_size=2)
_some_space = st.text(alphabet=" \t\n", min_size=1, max_size=2)
_references = st.sampled_from([
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x41;",
    "&#xe9;", "&#9731;", "&#10;", "&#13;", "&#9;", "&#32;", "&#x20;",
])
_text_chunks = st.one_of(
    st.text(alphabet="abc XYZ09.,;:!?()[]{}=+-*/'\"\n\té☃", min_size=1,
            max_size=8).filter(lambda chunk: "]]>" not in chunk),
    _references,
)
_attr_chunks = st.one_of(
    st.text(alphabet="abc XYZ09.,;:!?()[]{}=+-*/>é☃", min_size=1,
            max_size=6),
    _references,
)


@st.composite
def _attributes(draw):
    """``name = "value"`` pairs in both quote styles, with whitespace
    wherever a tag may hold it."""
    written = []
    for name in draw(st.lists(_names, max_size=3, unique=True)):
        quote = draw(st.sampled_from("\"'"))
        value = "".join(draw(st.lists(_attr_chunks, max_size=3)))
        value += {'"': "'", "'": '"'}[quote] * draw(st.integers(0, 1))
        written.append(
            f"{draw(_some_space)}{name}{draw(_space)}={draw(_space)}"
            f"{quote}{value}{quote}"
        )
    return "".join(written)


_cdata = st.text(
    alphabet="abc <>&]\n\"'", max_size=8
).filter(lambda body: "]]>" not in body).map(
    lambda body: f"<![CDATA[{body}]]>"
)
_comments = st.text(alphabet="abc <>&-\n", max_size=8).filter(
    lambda body: "--" not in body and not body.endswith("-")
).map(lambda body: f"<!--{body}-->")
_instructions = st.builds(
    lambda target, data: f"<?{target}{' ' + data if data else ''}?>",
    _names, st.text(alphabet="abc=\"'<>&", max_size=6),
)


@st.composite
def _element(draw, depth):
    name = draw(_names)
    head = f"<{name}{draw(_attributes())}{draw(_space)}"
    if draw(st.integers(0, 3)) == 0:
        return f"{head}/>"
    content = st.one_of(_text_chunks, _cdata, _comments, _instructions)
    if depth:
        content = st.one_of(content, _element(depth - 1))
    body = "".join(draw(st.lists(content, max_size=4)))
    return f"{head}>{body}</{name}{draw(_space)}>"


@st.composite
def documents(draw):
    prolog = draw(st.sampled_from(
        ["", '<?xml version="1.0"?>', "<?xml version='1.0' ?>\n"]
    ))
    misc = st.one_of(_comments, _instructions, _some_space)
    return (
        prolog + "".join(draw(st.lists(misc, max_size=2)))
        + draw(_element(3)) + "".join(draw(st.lists(misc, max_size=2)))
    )


def _merged(stream):
    """Adjacent character events as one: where a parser splits
    character data, and whether it reports an empty piece (an empty
    CDATA section), is its own business."""
    merged = []
    for event in stream:
        if event[0] != "chars":
            merged.append(event)
        elif merged and merged[-1][0] == "chars":
            merged[-1] = ("chars", merged[-1][1] + event[1])
        elif event[1]:
            merged.append(event)
    return merged


def expat_stream(text):
    stream = []
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = \
        lambda name, attrs: stream.append(("start", name, attrs))
    parser.EndElementHandler = lambda name: stream.append(("end", name))
    parser.CharacterDataHandler = \
        lambda data: stream.append(("chars", data))
    parser.CommentHandler = lambda data: stream.append(("comment", data))
    parser.ProcessingInstructionHandler = \
        lambda target, data: stream.append(("pi", target, data.strip()))
    parser.Parse(text, True)
    return _merged(stream)


def tokenizer_stream(text):
    stream = []
    for kind, value, extra in tokens(text):
        if kind == START:
            stream.append(("start", value, extra))
        elif kind == END:
            stream.append(("end", value))
        elif kind == TEXT:
            stream.append(("chars", value))
        elif kind == COMMENT:
            stream.append(("comment", value))
        elif kind == PI:
            stream.append(("pi", value, extra))
    return _merged(stream)


class _Recorder(ContentHandler):
    def __init__(self):
        self.stream = []

    def start_element(self, name, attrs):
        self.stream.append(("start", name, attrs))

    def end_element(self, name):
        self.stream.append(("end", name))

    def characters(self, text):
        self.stream.append(("chars", text))

    def processing_instruction(self, target, data):
        self.stream.append(("pi", target, data))

    def comment(self, text):
        self.stream.append(("comment", text))


class TestAgainstExpat:
    @settings(max_examples=200, deadline=None)
    @given(documents())
    def test_same_event_stream(self, text):
        expected = expat_stream(text)
        assert tokenizer_stream(text) == expected
        pushed = _Recorder()
        push_parse(text, pushed)
        assert _merged(pushed.stream) == expected

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_tree_round_trips_through_the_serializer(self, text):
        tree = parse_tree(text)
        for indent in (None, 2):
            assert parse_tree(serialize(tree, indent=indent)) == tree
        compact = serialize(tree, indent=None)
        assert serialize(parse_tree(compact), indent=None) == compact

    @pytest.mark.parametrize("text", [
        "<a\tx\n=\n'1'\n/>",               # whitespace everywhere legal
        "<a:b xmlns:a='ns' a:c='1'></a:b >",
        "<a x='>' y=\"'\" z='\"'>&#60;</a>",
        "<a><b/><b /><b></b><b x=''/></a>",
    ])
    def test_hand_picked(self, text):
        assert tokenizer_stream(text) == expat_stream(text)

    def test_leniency_the_scanner_always_had_is_kept(self):
        """Attributes run together are not XML (expat refuses them);
        the scanner reads them, so the fast path must leave it to."""
        assert tokenizer_stream("<a x='1'y=\"2\"/>") == [
            ("start", "a", {"x": "1", "y": "2"}), ("end", "a"),
        ]


# -- malformed input ---------------------------------------------------------------

#: (input, message, line, column) as the character-level scanner has
#: always reported them (captured before the tag fast path existed).
#: Reference errors come from ``unescape`` and carry no position.
MALFORMED = [
    ("<a>", "unclosed element <a>", 1, 4),
    ("<a></b>", "mismatched end tag </b>, expected </a>", 1, 8),
    ("</a>", "unexpected end tag </a>", 1, 5),
    ("<a/><b/>", "multiple root elements", 1, 6),
    ("text only", "character data outside the root element", 1, 1),
    ("", "document has no root element", 1, 1),
    ("<a x=1/>", "attribute value must be quoted", 1, 6),
    ('<a x="1" x="2"/>', "duplicate attribute 'x'", 1, 15),
    ("<a><!-- unterminated</a>", "unterminated comment", 1, 8),
    ("<a><![CDATA[open</a>", "unterminated CDATA section", 1, 13),
    ('<a x="<"/>', "'<' not allowed in attribute value", 1, 9),
    ("<a>&unknown;</a>", "unknown entity &unknown;", None, None),
    ("<1bad/>", "expected an XML name", 1, 2),
    ("<a\n  x='1'\n  x='2'>", "duplicate attribute 'x'", 3, 8),
    ('<a x="1" x="&bad;"/>', "duplicate attribute 'x'", 1, 19),
    ('<a x="&bad;" x="1"/>', "unknown entity &bad;", None, None),
    ("<a x='1' / >", "expected '>'", 1, 10),
    ("<a/ >", "expected '>'", 1, 3),
    ("<a ?>", "expected '>'", 1, 4),
    ('</a x="1">', "expected '>'", 1, 5),
    ("<r></r x='1'>", "expected '>'", 1, 8),
    ('<a\n  x="1"\n  y=2>', "attribute value must be quoted", 3, 5),
    ("<a><b></a>", "mismatched end tag </a>, expected </b>", 1, 11),
    ("<a></a></a>", "unexpected end tag </a>", 1, 12),
    ("<a/>text", "character data outside the root element", 1, 5),
    ("<a/>\n<b>", "multiple root elements", 2, 2),
    ("<a/>\n\n  </a>", "unexpected end tag </a>", 3, 7),
    ('<a x="&bad;"/>', "unknown entity &bad;", None, None),
    ("<a x='&#xZZ;'/>", "bad hexadecimal character reference &#xZZ;",
     None, None),
    ('<a x="1" <b/>', "expected an XML name", 1, 10),
    ('<a x="1', "unterminated attribute value", 1, 7),
    ("<a", "expected '>'", 1, 3),
    ("<", "expected an XML name", 1, 2),
    ("< a/>", "expected an XML name", 1, 2),
    ("<a x>", "expected '='", 1, 5),
    ("<a x=>", "attribute value must be quoted", 1, 6),
    ('<a "x"="1">', "expected an XML name", 1, 4),
    ("<a x='1\">", "unterminated attribute value", 1, 7),
    ("<a><?pi", "unterminated processing instruction", 1, 8),
    ("<a><? pi?></a>", "expected an XML name", 1, 6),
    ("<a><!DOCTYPE x></a>", "DOCTYPE after the root element", 1, 4),
    ("<!DOCTYPE a [", "unterminated DOCTYPE", 1, 14),
    ("<a>&#xZZ;</a>", "bad hexadecimal character reference &#xZZ;",
     None, None),
    ("<a>&#12x;</a>", "bad decimal character reference &#12x;",
     None, None),
    ("<a>&;</a>", "empty entity reference", None, None),
    ("<a>&amp</a>", "unterminated entity reference", None, None),
    ("<a>a & b; c</a>", "unknown entity & b;", None, None),
    ("text<a/>", "character data outside the root element", 1, 1),
    ("<a/><!-- c --><b/>", "multiple root elements", 1, 16),
    ('<?xml version="1.0"<a/>', "expected an XML name", 1, 20),
    ("<a></a><![CDATA[y]]>", "CDATA outside the root element", 1, 8),
    ("<![CDATA[x]]><a/>", "CDATA outside the root element", 1, 1),
    ("<a><b>\n</b>\n</c></a>", "mismatched end tag </c>, expected </a>",
     3, 5),
    ("<a:b:c></a:b>", "mismatched end tag </a:b>, expected </a:b:c>",
     1, 14),
    ("<a></a >x", "character data outside the root element", 1, 9),
    ("\n\n<a>\n<b x='1'\ny='2'z='3' w></b></a>", "expected '='", 5, 13),
]


class TestMalformedInput:
    @pytest.mark.parametrize("bad, message, line, column", MALFORMED)
    def test_message_and_position_unchanged(self, bad, message, line,
                                            column):
        with pytest.raises(XmlSyntaxError) as caught:
            list(tokens(bad))
        error = caught.value
        where = f" (line {line}, column {column})" if line else ""
        assert str(error) == message + where
        assert (error.line, error.column) == (line, column)
        for parse in (parse_tree,
                      lambda text: push_parse(text, ContentHandler())):
            with pytest.raises(XmlSyntaxError) as again:
                parse(bad)
            assert str(again.value) == str(error)


# -- input built to make a regex backtrack -------------------------------------------

#: Every case below takes well under a second when matching is linear;
#: a quadratic pass over a megabyte would take hours.
WALL_BOUND_SECONDS = 20.0
MEGABYTE = 1 << 20


def _events(text):
    return list(tokens(text))


def _timed(function, *args):
    started = time.perf_counter()
    try:
        result = function(*args)
    except XmlSyntaxError as error:
        result = error
    return result, time.perf_counter() - started


class TestLinearTime:
    def _attributes(self, count):
        return "".join(f' a{index}="v"' for index in range(count))

    def test_a_megabyte_of_attributes_that_never_closes(self):
        tag = "<a" + self._attributes(MEGABYTE // 10)
        assert len(tag) > MEGABYTE
        result, seconds = _timed(_events, tag)
        assert isinstance(result, XmlSyntaxError)
        assert "expected '>'" in str(result)
        assert seconds < WALL_BOUND_SECONDS

    def test_a_megabyte_of_attributes_that_does_close(self):
        count = MEGABYTE // 10
        tag = "<a" + self._attributes(count) + "/>"
        events, seconds = _timed(_events, tag)
        assert len(events[0][2]) == count
        assert seconds < WALL_BOUND_SECONDS

    def test_a_megabyte_attribute_value_that_never_closes(self):
        result, seconds = _timed(_events, '<a x="' + "v" * MEGABYTE)
        assert "unterminated attribute value" in str(result)
        assert seconds < WALL_BOUND_SECONDS

    def test_a_megabyte_of_tags_the_fast_path_declines(self):
        body = "<b x='1'y='2'/>" * (MEGABYTE // 15)
        events, seconds = _timed(_events, f"<a>{body}</a>")
        assert len(events) == 2 + 2 * (MEGABYTE // 15)
        assert seconds < WALL_BOUND_SECONDS

    @pytest.mark.parametrize("run, outcome", [
        ("&" * MEGABYTE, "unterminated entity reference"),
        ("&a" * (MEGABYTE // 2), "unterminated entity reference"),
        ("&amp" * (MEGABYTE // 4) + ";", "unknown entity &amp&amp"),
        ("&amp;" * (MEGABYTE // 5), "&" * (MEGABYTE // 5)),
        ("&#38;" * (MEGABYTE // 5), "&" * (MEGABYTE // 5)),
    ], ids=["bare", "unterminated", "one-terminator", "named", "numeric"])
    def test_a_megabyte_of_references(self, run, outcome):
        result, seconds = _timed(unescape, run)
        assert str(result).startswith(outcome)
        assert seconds < WALL_BOUND_SECONDS
        # ... and the same run as character data and in a tag.
        for text in (f"<a>{run}</a>", f'<a x="{run}"/>'):
            parsed, seconds = _timed(_events, text)
            if isinstance(result, XmlSyntaxError):
                assert str(parsed) == str(result)
            else:
                kind, value, _ = parsed[1]
                assert result in (parsed[0][2].get("x"),
                                  value if kind == TEXT else None)
            assert seconds < WALL_BOUND_SECONDS
