package repro.core

import org.apache.spark.SparkJobs
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.bench.Tables
import repro.data.Scenarios

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

  /** Algorithm 1 in SQL over the doc terms, units and hierarchy of both
    * corpora and the merge map `mm`: merge join, distinct, seeding by fewer
    * distinct unigrams (§II-B), the other corpus's semi-join on the seed
    * terms, then term, metadata, attribute and hierarchy nodes and edges.
    * An edge needs both ends to be nodes.
    */
  private val algorithm1Sql =
    """WITH
      |ma AS (SELECT DISTINCT d.docId, d.attr, COALESCE(m.canon, d.term) AS term
      |       FROM dtA d LEFT JOIN mm m ON d.term = m.variant),
      |mb AS (SELECT DISTINCT d.docId, d.attr, COALESCE(m.canon, d.term) AS term
      |       FROM dtB d LEFT JOIN mm m ON d.term = m.variant),
      |toks AS (SELECT (SELECT COUNT(DISTINCT term) FROM dtA WHERE strpos(term, '_') = 0)
      |             <= (SELECT COUNT(DISTINCT term) FROM dtB WHERE strpos(term, '_') = 0) AS aSeeds),
      |seed AS (SELECT term FROM ma WHERE (SELECT aSeeds FROM toks)
      |         UNION SELECT term FROM mb WHERE NOT (SELECT aSeeds FROM toks)),
      |ka AS (SELECT * FROM ma WHERE term IN (SELECT term FROM seed)),
      |kb AS (SELECT * FROM mb WHERE term IN (SELECT term FROM seed)),
      |nodes AS (SELECT term AS id, 'term' AS kind FROM seed
      |          UNION SELECT 'm1::' || docId, 'meta1' FROM ua
      |          UNION SELECT 'm2::' || docId, 'meta2' FROM ub
      |          UNION SELECT 'attr::' || attr, 'attr' FROM ua WHERE attr IS NOT NULL
      |          UNION SELECT 'attr::' || attr, 'attr' FROM ub WHERE attr IS NOT NULL),
      |pairs AS (SELECT 'm1::' || docId AS x, term AS y FROM ka
      |          UNION ALL SELECT 'm2::' || docId, term FROM kb
      |          UNION ALL SELECT 'attr::' || attr, term FROM ka WHERE attr IS NOT NULL
      |          UNION ALL SELECT 'attr::' || attr, term FROM kb WHERE attr IS NOT NULL
      |          UNION ALL SELECT 'm1::' || child, 'm1::' || parent FROM ha
      |          UNION ALL SELECT 'm2::' || child, 'm2::' || parent FROM hb),
      |edges AS (SELECT DISTINCT least(x, y) AS src, greatest(x, y) AS dst FROM pairs
      |          WHERE x <> y AND x IN (SELECT id FROM nodes) AND y IN (SELECT id FROM nodes))
      |""".stripMargin

  /** `build`'s nodes and edges equal [[algorithm1Sql]]'s on DuckDB. */
  private def assertAlgorithm1(a: Corpus, b: Corpus, maxN: Int, merge: DataFrame): Graph = {
    val built = GraphBuilder.build(spark, a, b, GraphBuilder.Config(maxN = maxN, mergeMap = Some(merge)))
    val tables = Seq(
      "dtA" -> a.docTerms(spark, maxN), "dtB" -> b.docTerms(spark, maxN), "mm" -> merge,
      "ua" -> a.units.select("docId", "attr"), "ub" -> b.units.select("docId", "attr"),
      "ha" -> a.hierarchy(spark), "hb" -> b.hierarchy(spark))
    Oracle.assertEquivalent(built.nodes, algorithm1Sql + "SELECT id, kind FROM nodes", tables: _*)
    Oracle.assertEquivalent(built.edges, algorithm1Sql + "SELECT src, dst FROM edges", tables: _*)
    built
  }

  test("Algorithm 1 matches DuckDB: merges, stop-word cells, seeding from A or B, taxonomy") {
    import spark.implicits._
    val (reviews, _) = fixture
    // `note` holds only stop-words: attr::note has no term.
    val movies = TableCorpus("movies", Seq(
      ("t1", "sixth sense", "shyamalan", "willis", "thriller", "the and of"),
      ("t2", "pulp fiction", "tarantino", "willis", "drama", "it is"))
      .toDF("docId", "title", "director", "actor", "genre", "note"), "docId")
    // thriller and tarantino merge into terms that already exist.
    val merge = Seq(("thriller", "drama"), ("tarantino", "willi"), ("bland", "comedi"))
      .toDF("variant", "canon")
    def moviesSeed(g: Graph): Boolean = g.index.contains("shyamalan") && !g.index.contains("bland")

    val seedB = assertAlgorithm1(reviews, movies, 2, merge)
    assert(moviesSeed(seedB) && seedB.index.contains("attr::note"))
    assert(seedB.degree(seedB.index("attr::note")) == 0)
    assert(!seedB.index.contains("thriller") && seedB.index.contains("drama"))
    val seedA = assertAlgorithm1(movies, reviews, 3, merge)
    assert(moviesSeed(seedA))

    // c9 has no text, so no node: its hierarchy edge is dropped.
    val tax = TaxonomyCorpus("tax", Seq(
      ("c0", "audit programme", null.asInstanceOf[String]),
      ("c1", "iso nineteen audit", "c0"),
      ("c2", "planning of the programme", "c1"),
      ("c9", null.asInstanceOf[String], "c0")).toDF("docId", "text", "parent"))
    val docs = TextCorpus("docs", Seq(("d1", "audit planning iso"), ("d2", "the programme"))
      .toDF("docId", "text"))
    val gt = assertAlgorithm1(docs, tax, 1, Seq(("iso", "nineteen")).toDF("variant", "canon"))
    assert(gt.degree(gt.index("m2::c2")) > 0 && !gt.index.contains("m2::c9"))
  }

  test("mergeFor and build start at most 1 Spark job per fresh corpus") {
    val sc = Scenarios.corona(spark, Scenarios.CoronaParams(nCountries = 6, nMonths = 4, nGen = 30))
    val (g, jobs) = SparkJobs.count(spark.sparkContext) {
      val merge = Tables.mergeFor(spark, sc, useGamma = false, useBuckets = true)
      GraphBuilder.build(spark, sc.queries, sc.candidates,
        GraphBuilder.Config(maxN = Tables.Default.maxN, mergeMap = merge))
    }
    assert(g.numEdges > 0)
    assert(jobs <= 2)
  }

  test("a repeat build on the same corpora starts no Spark job and gives the same graph") {
    import spark.implicits._
    val (reviews, movies) = fixture
    val cfg = GraphBuilder.Config(maxN = 2,
      mergeMap = Some(Seq(("thriller", "drama")).toDF("variant", "canon")))
    val first = GraphBuilder.build(spark, reviews, movies, cfg)
    val (second, jobs) = SparkJobs.count(spark.sparkContext)(GraphBuilder.build(spark, reviews, movies, cfg))
    assert(jobs == 0)
    assert(second.nodeList == first.nodeList && second.edgeList == first.edgeList)
  }
}
