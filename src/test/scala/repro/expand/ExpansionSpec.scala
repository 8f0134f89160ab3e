package repro.expand

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Graph, Kind}

class ExpansionSpec extends SparkSpec {

  /** p1 — willis — t2 fixture with a KB offering tarantino→comedy. */
  private def fixture: Graph = Graph.of(
    Seq(
      ("m1::p1", Kind.Meta1), ("m2::t2", Kind.Meta2),
      ("willi", Kind.Term), ("comedi", Kind.Term), ("tarantino", Kind.Term)),
    Seq(
      ("m1::p1", "willi"), ("m1::p1", "comedi"),
      ("m2::t2", "willi"), ("m2::t2", "tarantino")))

  test("expansion adds the style(tarantino, comedy) bridge (paper §III-A)") {
    val kb = SynthKB(Seq(("tarantino", "comedi")))
    val g = Expansion.expand(spark, fixture, kb)
    assert(g.edges.where(
      (col("src") === "comedi" && col("dst") === "tarantino")).count() == 1)
  }

  test("expansion adds new nodes with kind=kb") {
    val kb = SynthKB(Seq(("tarantino", "pulp_fiction"), ("willi", "pulp_fiction")))
    val g = Expansion.expand(spark, fixture, kb)
    val kinds = g.nodes.collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(kinds("pulp_fiction") == Kind.Kb)
  }

  test("degree-1 KB nodes are pruned (Bhavna Vaswani case)") {
    val kb = SynthKB(Seq(("tarantino", "spouse_node")))
    val g = Expansion.expand(spark, fixture, kb)
    assert(g.nodes.where(col("id") === "spouse_node").count() == 0)
  }

  test("KB node connected twice survives pruning") {
    val kb = SynthKB(Seq(("tarantino", "pulp_fiction"), ("willi", "pulp_fiction")))
    val g = Expansion.expand(spark, fixture, kb)
    assert(g.nodes.where(col("id") === "pulp_fiction").count() == 1)
  }

  test("metadata nodes never expand (Algorithm 2 guard)") {
    val kb = SynthKB(Seq(("m1::p1", "evil_node")))
    val g = Expansion.expand(spark, fixture, kb)
    assert(g.nodes.where(col("id") === "evil_node").count() == 0)
  }

  test("metadata nodes survive pruning even at degree 1") {
    val nodes = Seq(("m1::p1", Kind.Meta1), ("t", Kind.Term), ("m2::t1", Kind.Meta2))
    val g = Expansion.removeSinks(Graph.of(nodes, Seq(("m1::p1", "t"))))
    val kept = g.nodes.collect().map(_.getString(0)).toSet
    assert(kept.contains("m1::p1") && kept.contains("m2::t1"))
  }

  test("triples touching no graph node are ignored") {
    val kb = SynthKB(Seq(("unrelated1", "unrelated2")))
    val g = Expansion.expand(spark, fixture, kb)
    assert(g.nodes.where(col("id").isin("unrelated1", "unrelated2")).count() == 0)
  }

  test("expansion in reverse direction (object side) also connects") {
    val kb = SynthKB(Seq(("style_x", "tarantino"))) // graph node as object
    val g = Expansion.expand(spark, fixture, kb)
    // style_x has degree 1 → pruned; but edge existed before pruning.
    // Use a double-connected variant to observe it:
    val kb2 = SynthKB(Seq(("style_x", "tarantino"), ("style_x", "willi")))
    val g2 = Expansion.expand(spark, fixture, kb2)
    assert(g2.edges.where(col("dst") === "tarantino" || col("src") === "style_x").count() >= 1)
    assert(g2.nodes.where(col("id") === "style_x").count() == 1)
    assert(g.nodes.where(col("id") === "style_x").count() == 0)
  }

  test("expanded graph keeps all original metadata edges") {
    val kb = SynthKB(Seq(("tarantino", "comedi")))
    val g = Expansion.expand(spark, fixture, kb)
    val orig = fixture.edges.collect().map(r => (r.getString(0), r.getString(1))).toSet
    val now = g.edges.collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(orig.subsetOf(now))
  }

  test("shortest path p1→t2 shrinks after expansion (paper example)") {
    val kb = SynthKB(Seq(("tarantino", "comedi")))
    val before = fixture
    val after = Expansion.expand(spark, fixture, kb)
    def dist(lg: Graph) = lg.bfs(lg.index("m1::p1"))(lg.index("m2::t2"))
    // before: p1-willis-t2 = 2 hops; after adds p1-comedy-tarantino-t2 (3),
    // so the count of ≤3-hop paths grows while the shortest stays 2.
    assert(dist(before) == 2 && dist(after) == 2)
    val cnt = after.neighborsOf(after.index("comedi")).length
    assert(cnt == 2) // p1 and tarantino
  }

  test("SynthKB triples dedup") {
    val kb = SynthKB(Seq(("a", "b"), ("a", "b")))
    assert(kb.triples(spark).count() == 1)
  }

  test("expansion matches DuckDB: canonical union, then sink pruning, then induced edges") {
    // A degree-1 base term left alone (tarantino), a degree-1 KB node
    // (spouse_node), a KB node linked twice (pulp_fiction), a triple from a
    // metadata node to a new label (ignored) and one between a metadata
    // node and a term that repeats a graph edge.
    val kb = SynthKB(Seq(
      ("willi", "spouse_node"), ("willi", "pulp_fiction"), ("comedi", "pulp_fiction"),
      ("m1::p1", "evil_node"), ("m2::t2", "willi")))
    val g = Expansion.expand(spark, fixture, kb)
    val tables = Seq("nodes" -> fixture.nodes, "edges" -> fixture.edges, "triples" -> kb.triples(spark))
    val meta = s"('${Kind.Meta1}', '${Kind.Meta2}', '${Kind.Attr}')"
    val kept =
      s"""WITH data AS (SELECT id FROM nodes WHERE kind NOT IN $meta),
         |hits AS (
         |  SELECT subject AS a, object AS b FROM triples WHERE subject IN (SELECT id FROM data)
         |  UNION SELECT subject, object FROM triples WHERE object IN (SELECT id FROM data)),
         |e AS (
         |  SELECT src, dst FROM edges
         |  UNION SELECT least(a, b), greatest(a, b) FROM hits WHERE a <> b),
         |n AS (
         |  SELECT id, kind FROM nodes
         |  UNION SELECT x, '${Kind.Kb}' FROM (SELECT a AS x FROM hits UNION SELECT b FROM hits)
         |    WHERE x NOT IN (SELECT id FROM nodes)),
         |deg AS (SELECT id, COUNT(*) AS d FROM (SELECT src AS id FROM e UNION ALL SELECT dst FROM e) GROUP BY id),
         |keep AS (
         |  SELECT n.id, n.kind FROM n LEFT JOIN deg ON n.id = deg.id
         |  WHERE n.kind IN $meta OR COALESCE(deg.d, 0) > 1)
         |""".stripMargin
    Oracle.assertEquivalent(g.nodes, kept + "SELECT id, kind FROM keep", tables: _*)
    Oracle.assertEquivalent(g.edges,
      kept + "SELECT src, dst FROM e WHERE src IN (SELECT id FROM keep) AND dst IN (SELECT id FROM keep)",
      tables: _*)
    // The fixture exercises every case it names.
    assert(g.index.contains("pulp_fiction") && g.index.contains("comedi"))
    assert(Seq("spouse_node", "tarantino", "evil_node").forall(!g.index.contains(_)))
  }
}
