"""The column tagger and the dispatch shredder against the tree oracles.

Every byte-identity check elsewhere reads documents through
``publish_document``, so the tagger cannot be judged by itself: here
it must print what the tree tagger in ``tree_publisher.py`` prints,
and the shredder must produce the SAX handler's tuples — on random
schemas, fragmentations and documents, on cells that need escaping,
on absent and empty elements, on multi-document stores, and in what
they reject.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fragmentation import Fragmentation
from repro.errors import RelationalError, SchemaError
from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import publish_document
from repro.relational.shredder import shred_document
from repro.schema.model import Cardinality, SchemaNode, SchemaTree

from tests.documents import element_count
from tests.integration.test_random_roundtrips import pipelines
from tests.relational.document_sets import (
    publish_document_set,
    shred_documents,
)
from tests.relational.tree_publisher import (
    tree_publish_document,
    tree_publish_document_set,
    tree_shred_document,
)


def _store(fragmentation, document=None):
    db = Database(fragmentation.name)
    mapper = FragmentRelationMapper(fragmentation)
    mapper.create_tables(db)
    if document is not None:
        mapper.load_document(db, document)
    return db, mapper


def assert_shreds_like_oracle(text, mapper, start_eid=1):
    result = shred_document(text, mapper, start_eid)
    oracle = tree_shred_document(text, mapper, start_eid)
    assert result.rows == oracle.rows
    assert result.elements_parsed == oracle.elements_parsed
    return result


@settings(max_examples=40, deadline=None)
@given(pipelines())
def test_publish_equals_tree_tagger(case):
    _, source, target, document = case
    db, mapper = _store(source, document)
    published = publish_document(db, mapper).document
    assert published == tree_publish_document(db, mapper)

    target_db, target_mapper = _store(target)
    assert_shreds_like_oracle(published, target_mapper).load_into(
        target_db
    )
    assert publish_document(target_db, target_mapper).document == \
        tree_publish_document(target_db, target_mapper)


@settings(max_examples=40, deadline=None)
@given(pipelines(), st.integers(1, 10_000))
def test_shred_equals_sax_handler(case, start_eid):
    _, source, target, document = case
    db, mapper = _store(source, document)
    published = publish_document(db, mapper).document
    for fragmentation in (source, target):
        assert_shreds_like_oracle(
            published, FragmentRelationMapper(fragmentation), start_eid
        )


# -- a hand-made schema: attributes, optional subtrees, empty text ---------

def _shop_schema() -> SchemaTree:
    return SchemaTree(SchemaNode("shop", attributes=["id"], children=[
        SchemaNode("name"),
        SchemaNode("owner", Cardinality.OPT, attributes=["since"],
                   children=[
                       SchemaNode("first", attributes=["lang"]),
                       SchemaNode("last"),
                   ]),
        SchemaNode("item", Cardinality.MANY, attributes=["code", "note"],
                   children=[
                       SchemaNode("title"),
                       SchemaNode("extra", Cardinality.OPT, children=[
                           SchemaNode("tag"),
                       ]),
                       SchemaNode("price"),
                   ]),
    ]))


SHOP = _shop_schema()

#: Every flat fragmentation worth telling apart: the repeated ``item``
#: is always a root; the optional subtrees sit in their parent's row or
#: in fragments of their own.
SHOP_FRAGMENTATIONS = [
    Fragmentation.from_roots(SHOP, roots, "-".join(roots))
    for roots in (
        ["shop", "item"],
        ["shop", "item", "owner"],
        ["shop", "item", "extra", "first"],
        ["shop", "name", "owner", "first", "last", "item", "title",
         "extra", "tag", "price"],
    )
]

SHOP_DOCUMENTS = [
    # Cells holding & < > " ; newline and tab in attributes; the
    # optional owner present with its children.
    '<?xml version="1.0"?><shop id="s&amp;1&quot;">'
    '<name>A &amp; B &lt;c&gt; "q"</name>'
    '<owner since="line&#10;two&#9;tab &lt;x&gt;">'
    '<first lang="&quot;en&quot;">Ann</first><last>O&amp;Neil</last>'
    '</owner>'
    '<item code="x&quot;y" note="&#9;"><title>t1</title>'
    '<extra><tag>&lt;b&gt;</tag></extra><price>3</price></item>'
    '</shop>',
    # Owner absent (so are its children); empty text everywhere the
    # shredder stores NULL; an empty attribute; an item without extra;
    # an attribute left off.
    '<shop id=""><name></name>'
    '<item code=""><title/><price>  </price></item>'
    '<item note="n"><title>t</title><extra><tag/></extra>'
    '<price>9</price></item>'
    '</shop>',
    # No items at all.
    '<shop><name>only</name><owner><first/><last>L</last></owner></shop>',
]


@pytest.mark.parametrize("fragmentation", SHOP_FRAGMENTATIONS,
                         ids=lambda fragmentation: fragmentation.name)
@pytest.mark.parametrize("text", SHOP_DOCUMENTS)
def test_fixed_documents_match_the_oracles(fragmentation, text):
    db, mapper = _store(fragmentation)
    assert_shreds_like_oracle(text, mapper).load_into(db)
    published = publish_document(db, mapper).document
    assert published == tree_publish_document(db, mapper)
    # Published once, the document is a fixed point of the round trip
    # under every fragmentation.
    for other in SHOP_FRAGMENTATIONS:
        other_db, other_mapper = _store(other)
        assert_shreds_like_oracle(published, other_mapper).load_into(
            other_db
        )
        assert publish_document(other_db, other_mapper).document == \
            published


def test_absent_elements_publish_nothing_below_them():
    """A NULL key hides the element and everything under it, even
    cells and child-fragment rows that are not NULL."""
    fragmentation = SHOP_FRAGMENTATIONS[2]  # extra and first are roots
    db, mapper = _store(fragmentation)
    shred_document(SHOP_DOCUMENTS[0], mapper).load_into(db)
    shop = db.table(mapper.table_name(fragmentation.fragment_of("shop")))
    owner_eid = shop.schema.position("owner_eid")
    row = list(shop.rows[0])
    row[owner_eid] = None
    shop.truncate()
    shop.bulk_load([row])
    published = publish_document(db, mapper).document
    assert published == tree_publish_document(db, mapper)
    assert "<owner" not in published and "<first" not in published


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_cells_match_the_oracles(data):
    """Random text and attribute values, from an alphabet of the
    characters escaping touches, in random shop documents."""
    cell = st.text(alphabet="ab &<>\"';#\n\t", max_size=6)

    def attr(name):
        value = data.draw(st.none() | cell)
        if value is None:
            return ""
        escaped = (value.replace("&", "&amp;").replace("<", "&lt;")
                   .replace('"', "&quot;").replace("\n", "&#10;")
                   .replace("\t", "&#9;"))
        return f' {name}="{escaped}"'

    def leaf(name):
        value = data.draw(cell)
        return f"<{name}>" + value.replace("&", "&amp;") \
            .replace("<", "&lt;") + f"</{name}>"

    parts = [f"<shop{attr('id')}>", leaf("name")]
    if data.draw(st.booleans()):
        parts += [f"<owner{attr('since')}>",
                  f"<first{attr('lang')}>x</first>", leaf("last"),
                  "</owner>"]
    for _ in range(data.draw(st.integers(0, 3))):
        parts += [f"<item{attr('code')}{attr('note')}>", leaf("title")]
        if data.draw(st.booleans()):
            parts += ["<extra>", leaf("tag"), "</extra>"]
        parts += [leaf("price"), "</item>"]
    parts.append("</shop>")
    text = "".join(parts)
    fragmentation = data.draw(st.sampled_from(SHOP_FRAGMENTATIONS))
    db, mapper = _store(fragmentation)
    assert_shreds_like_oracle(text, mapper).load_into(db)
    assert publish_document(db, mapper).document == \
        tree_publish_document(db, mapper)


# -- multi-document stores ----------------------------------------------------

def test_document_sets_match_the_oracles(customers_t, customers_s,
                                         customer_documents):
    db, mapper = _store(customers_t)
    for document in customer_documents:
        mapper.load_document(db, document)
    reports = publish_document_set(db, mapper)
    texts = [report.document for report in reports]
    assert texts == tree_publish_document_set(db, mapper)
    assert [report.rows_merged for report in reports] == [
        element_count(document) for document in customer_documents
    ]

    combined = shred_documents(texts, mapper)
    expected: dict[str, list[tuple]] = {name: [] for name in combined.rows}
    next_eid = 1
    for text in texts:
        oracle = tree_shred_document(text, mapper, next_eid)
        next_eid += oracle.elements_parsed
        for table_name, rows in oracle.rows.items():
            expected[table_name].extend(rows)
    assert combined.rows == expected
    assert combined.elements_parsed == next_eid - 1


# -- what both reject ---------------------------------------------------------

LF_LIKE = SHOP_FRAGMENTATIONS[0]


@pytest.mark.parametrize("text, error", [
    ("<shop><bogus/></shop>", SchemaError),
    # ``item``'s fragment is not open: ``title`` is outside its root.
    ("<shop><title>x</title></shop>", RelationalError),
])
def test_shred_errors_match_the_oracle(text, error):
    mapper = FragmentRelationMapper(LF_LIKE)
    with pytest.raises(error):
        tree_shred_document(text, mapper)
    with pytest.raises(error):
        shred_document(text, mapper)


@pytest.mark.parametrize("documents", [0, 2])
def test_root_count_errors_match_the_oracle(documents):
    db, mapper = _store(LF_LIKE)
    shred_documents([SHOP_DOCUMENTS[2]] * documents, mapper).load_into(db)
    with pytest.raises(RelationalError):
        tree_publish_document(db, mapper)
    with pytest.raises(RelationalError, match="exactly one"):
        publish_document(db, mapper)


def test_publish_leaves_no_garbage_cycle(auction_mf, auction_document):
    """Nothing a publish allocates outlives it waiting for the cyclic
    collector (a self-calling closure would hold every feed)."""
    db, mapper = _store(auction_mf, auction_document)
    gc.collect()
    gc.disable()
    try:
        publish_document(db, mapper)
    finally:
        gc.enable()
    assert gc.collect() == 0
