package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Algorithm 1 behavior on an Example-1-like fixture (movies + reviews). */
class GraphBuilderSpec extends SparkSpec {

  private def fixture = {
    import spark.implicits._
    val table = Seq(
      ("t1", "sixth sense", "shyamalan", "willis", "thriller"),
      ("t2", "pulp fiction", "tarantino", "willis", "drama"))
      .toDF("docId", "title", "director", "actor", "genre")
    // Reviews carry extra filler words so the *table* is the corpus with
    // fewer distinct tokens and seeds the data nodes (§II-B).
    val texts = Seq(
      ("p1", "bland comedy by willis. extra weird verbose chatter feels overly convoluted"),
      ("p2", "willis in a thriller. plenty additional random musings about cinema craft"))
      .toDF("docId", "text")
    (TextCorpus("reviews", texts), TableCorpus("movies", table, "docId"))
  }

  private lazy val g = {
    val (reviews, movies) = fixture
    GraphBuilder.build(spark, reviews, movies, GraphBuilder.Config(maxN = 2))
  }

  /** Labels of the neighbours of node `id`. */
  private def neighbours(g: Graph, id: String): Set[String] =
    g.neighborsOf(g.index(id)).map(g.labels).toSet

  private def metadataIds(g: Graph): Set[String] =
    g.nodeList.collect { case (id, k) if Kind.isMetadata(k) => id }.toSet

  test("metadata nodes exist for every document of both corpora") {
    val metas = g.nodes.where(col("kind").isin(Kind.Meta1, Kind.Meta2))
      .collect().map(_.getString(0)).toSet
    assert(metas == Set("m1::p1", "m1::p2", "m2::t1", "m2::t2"))
  }

  test("attribute nodes exist for table columns") {
    val attrs = g.nodes.where(col("kind") === Kind.Attr).collect().map(_.getString(0)).toSet
    assert(attrs == Set("attr::title", "attr::director", "attr::actor", "attr::genre"))
  }

  test("table (smaller token set) seeds the data nodes") {
    val terms = g.nodes.where(col("kind") === Kind.Term).collect().map(_.getString(0)).toSet
    assert(terms.contains("shyamalan"))
    assert(terms.contains("willi")) // stem of willis
    // review-only words are filtered out (§II-B):
    assert(!terms.contains("bland"))
  }

  test("review terms present in the table survive filtering") {
    val p1Edges = neighbours(g, "m1::p1")
    assert(p1Edges == Set("willi")) // comedy/bland filtered, willis kept
  }

  test("tuple connects to its term nodes") {
    val t1 = neighbours(g, "m2::t1")
    assert(t1.contains("shyamalan") && t1.contains("thriller") && t1.contains("willi"))
    assert(t1.contains("sixth_sens")) // bigram term
  }

  test("attribute node links the active domain (2-hop paths across tuples)") {
    val dirTerms = neighbours(g, "attr::director")
    assert(dirTerms == Set("shyamalan", "tarantino"))
  }

  test("no edges between metadata nodes of different corpora") {
    val metaIds = metadataIds(g)
    val crossEdges = g.edges.collect().filter { r =>
      metaIds.contains(r.getString(0)) && metaIds.contains(r.getString(1))
    }
    assert(crossEdges.isEmpty)
  }

  test("edges are canonicalized (src < dst) and distinct") {
    val bad = g.edges.where(col("src") >= col("dst")).count()
    assert(bad == 0)
    assert(g.edges.count() == g.edges.distinct().count())
  }

  test("degree computation matches DuckDB") {
    import spark.implicits._
    val byNode = g.labels.indices.filter(g.degree(_) > 0)
      .map(v => (g.labels(v), g.degree(v).toString)).toDF("id", "degree")
    Oracle.assertEquivalent(
      byNode,
      "SELECT id, CAST(COUNT(*) AS VARCHAR) AS degree " +
        "FROM (SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges) GROUP BY id",
      "edges" -> g.edges)
  }

  test("mergeMap rewrites variants before edge creation") {
    import spark.implicits._
    val (reviews, movies) = fixture
    val merge = Seq(("willi", "canonwilli")).toDF("variant", "canon")
    val gm = GraphBuilder.build(spark, reviews, movies,
      GraphBuilder.Config(maxN = 1, mergeMap = Some(merge)))
    val terms = gm.nodes.where(col("kind") === Kind.Term).collect().map(_.getString(0)).toSet
    assert(terms.contains("canonwilli") && !terms.contains("willi"))
    val p1 = neighbours(gm, "m1::p1")
    assert(p1 == Set("canonwilli"))
  }

  test("taxonomy hierarchy yields metadata-metadata edges (§II-A)") {
    import spark.implicits._
    val tax = TaxonomyCorpus("tax", Seq(
      ("c0", "audit programme", null.asInstanceOf[String]),
      ("c1", "iso nineteen", "c0")).toDF("docId", "text", "parent"))
    val docs = TextCorpus("docs", Seq(("d1", "audit planning iso")).toDF("docId", "text"))
    val gt = GraphBuilder.build(spark, docs, tax, GraphBuilder.Config(maxN = 1))
    val metaEdge = gt.edges
      .where(col("src") === "m2::c0" && col("dst") === "m2::c1").count()
    assert(metaEdge == 1)
  }

  test("autoOrder=false seeds from the first corpus") {
    val (reviews, movies) = fixture
    val gf = GraphBuilder.build(spark, reviews, movies,
      GraphBuilder.Config(maxN = 1, autoOrder = false))
    val terms = gf.nodes.where(col("kind") === Kind.Term).collect().map(_.getString(0)).toSet
    assert(terms.contains("bland")) // review word now survives
    assert(!terms.contains("shyamalan")) // table word absent from reviews is filtered
  }

  test("every metadata node with terms has at least one edge") {
    val ids = metadataIds(g)
    val withEdge = g.labels.indices.filter(g.degree(_) > 0).map(g.labels).toSet
    assert(ids.subsetOf(withEdge))
  }

  test("term nodes count matches DuckDB distinct terms of seeding corpus") {
    val (_, movies) = fixture
    val dt = movies.docTerms(spark, 2).select("term").distinct()
    val termNodes = g.nodes.where(col("kind") === Kind.Term).select(col("id").as("term"))
    Oracle.assertEquivalent(termNodes, "SELECT DISTINCT term FROM dt", "dt" -> dt)
  }

  test("graph is deterministic across rebuilds") {
    val (reviews, movies) = fixture
    val g2 = GraphBuilder.build(spark, reviews, movies, GraphBuilder.Config(maxN = 2))
    assert(g2.numNodes == g.numNodes && g2.numEdges == g.numEdges)
  }
}
