package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{TableCorpus, TaxonomyCorpus}

class ScenariosSpec extends SparkSpec {

  private lazy val imdbTiny = Scenarios.imdb(spark,
    Scenarios.ImdbParams(nMovies = 12, nDirectors = 6, nActors = 10, seed = 5))
  private lazy val coronaTiny = Scenarios.corona(spark,
    Scenarios.CoronaParams(nCountries = 6, nMonths = 4, nGen = 30, seed = 5))
  private lazy val auditTiny = Scenarios.audit(spark,
    Scenarios.AuditParams(nLevel1 = 3, childrenPerNode = 2, maxDepth = 3, nDocs = 30, seed = 5))
  private lazy val snopesTiny = Scenarios.claims(spark,
    Scenarios.ClaimsParams(nFacts = 60, nClaims = 15, seed = 5))
  private lazy val stsTiny = Scenarios.sts(spark, Scenarios.StsParams(nPairs = 40, threshold = 2, seed = 5))

  // ---- IMDb --------------------------------------------------------------

  test("imdb: table has 13 attributes in WT") {
    val t = imdbTiny.candidates.asInstanceOf[TableCorpus].df
    assert(t.columns.length == 14) // docId + 13 attrs
  }
  test("imdb NT drops the title") {
    val nt = Scenarios.imdb(spark,
      Scenarios.ImdbParams(nMovies = 8, nDirectors = 4, nActors = 8, withTitle = false, seed = 5))
    val t = nt.candidates.asInstanceOf[TableCorpus].df
    assert(!t.columns.contains("title") && t.columns.length == 13)
  }
  test("imdb: two reviews per movie, truth maps each to its movie") {
    assert(imdbTiny.queries.units.select("docId").distinct().count() == 24)
    assert(imdbTiny.truth.count() == 24)
    val bad = imdbTiny.truth.where(!col("candId").cast("int").between(0, 11)).count()
    assert(bad == 0)
  }
  test("imdb: KB triples are normalized to graph-term form") {
    val t = imdbTiny.kb.triples(spark).collect().map(r => (r.getString(0), r.getString(1)))
    assert(t.nonEmpty)
    assert(t.forall { case (a, b) => a == a.toLowerCase && b == b.toLowerCase })
    assert(t.forall { case (a, b) => !a.contains(" ") && !b.contains(" ") })
  }
  test("imdb: merge dictionary maps abbreviations to full names") {
    assert(imdbTiny.mergeDict.nonEmpty)
    assert(imdbTiny.mergeDict.forall { case (abbr, full) => abbr.contains(". ") && full.contains(" ") })
  }
  test("imdb: window is 3 (text-to-data)") { assert(imdbTiny.window == 3) }
  test("imdb: deterministic in seed") {
    val again = Scenarios.imdb(spark,
      Scenarios.ImdbParams(nMovies = 12, nDirectors = 6, nActors = 10, seed = 5))
    assert(again.truth.collect().toSet == imdbTiny.truth.collect().toSet)
  }

  // ---- Corona ------------------------------------------------------------

  test("corona: one tuple per country-month") {
    assert(coronaTiny.candidates.units.select("docId").distinct().count() == 24)
  }
  test("corona: claims reference existing tuples") {
    val cands = coronaTiny.candidates.units.select(col("docId").as("candId")).distinct()
    val dangling = coronaTiny.truth.join(cands, Seq("candId"), "left_anti")
    assert(dangling.count() == 0)
  }
  test("corona: some comparative claims match two tuples") {
    val multi = coronaTiny.truth.groupBy("queryId").count().where(col("count") > 1)
    assert(multi.count() >= 0) // existence depends on sampling; structural check below
    assert(coronaTiny.truth.count() >= 30)
  }
  test("corona usr: claims contain typos absent from the table") {
    val usr = Scenarios.corona(spark,
      Scenarios.CoronaParams(nCountries = 6, nMonths = 4, nUsr = 20, user = true, seed = 5))
    assert(usr.queries.units.count() > 0)
    assert(usr.mergeDict.nonEmpty) // typo dictionary provided
  }
  test("corona: claim values are numeric tokens (bucketing has targets)") {
    val toks = coronaTiny.queries.docTerms(spark, 1)
      .select("term").collect().map(_.getString(0))
    assert(toks.exists(t => repro.core.TextPrep.isNumeric(t)))
  }

  // ---- Audit -------------------------------------------------------------

  test("audit: taxonomy corpus with hierarchy") {
    assert(auditTiny.candidates.isInstanceOf[TaxonomyCorpus])
    assert(auditTiny.candidates.hierarchy(spark).count() > 0)
  }
  test("audit: taxonomy info paths are consistent") {
    val info = auditTiny.taxonomy.get
    assert(info.parentOf.values.forall(info.textOf.contains))
    val paths = repro.metrics.TaxoMetrics.paths(info.parentOf, info.textOf)
    assert(paths("c0") == Seq(info.textOf("c0")))
    assert(paths.values.forall(_.nonEmpty))
  }
  test("audit: documents annotated with 1..7 concepts") {
    val counts = auditTiny.truth.groupBy("queryId").count().collect().map(_.getLong(1))
    assert(counts.forall(c => c >= 1 && c <= 7))
    assert(counts.exists(_ == 1) && counts.exists(_ > 1))
  }
  test("audit: truth concepts exist in the taxonomy") {
    val info = auditTiny.taxonomy.get
    val cids = auditTiny.truth.select("candId").distinct().collect().map(_.getString(0))
    assert(cids.forall(info.textOf.contains))
  }
  test("audit: acronym dictionary present (PDCA case)") {
    assert(auditTiny.mergeDict.nonEmpty)
    assert(auditTiny.mergeDict.forall(_._2.split(" ").length == 3))
  }
  test("audit: window is 15 (text task)") { assert(auditTiny.window == 15) }

  // ---- Claims (Snopes/Politifact) ----------------------------------------

  test("claims: every claim paraphrases one fact") {
    assert(snopesTiny.truth.count() == 15)
    val perQ = snopesTiny.truth.groupBy("queryId").count().collect().map(_.getLong(1))
    assert(perQ.forall(_ == 1))
  }
  test("claims: fact corpus is larger than the claim corpus") {
    assert(snopesTiny.candidates.units.select("docId").distinct().count() >
      snopesTiny.queries.units.select("docId").distinct().count())
  }
  test("politifact paraphrases harder than snopes") {
    val sn = Scenarios.ClaimsParams(seed = 1, name = "snopes")
    val po = Scenarios.ClaimsParams(nFacts = 2500, synProb = 0.55, dropProb = 0.3, seed = 1, name = "politifact")
    assert(po.synProb > sn.synProb && po.dropProb > sn.dropProb)
  }

  // ---- STS ---------------------------------------------------------------

  test("sts: higher threshold keeps fewer pairs") {
    val k2 = Scenarios.sts(spark, Scenarios.StsParams(nPairs = 60, threshold = 2, seed = 5))
    val k3 = Scenarios.sts(spark, Scenarios.StsParams(nPairs = 60, threshold = 3, seed = 5))
    assert(k3.truth.count() < k2.truth.count())
  }
  test("sts: left and right corpora align one-to-one with truth") {
    assert(stsTiny.truth.count() == stsTiny.queries.units.select("docId").distinct().count())
  }
  test("sts: score-5 pairs are identical strings") {
    // regenerate pairs and verify the invariant via matching corpora
    val lefts = stsTiny.queries.units.collect().map(r => (r.getString(0), r.getString(1))).toMap
    val rights = stsTiny.candidates.units.collect().map(r => (r.getString(0), r.getString(1))).toMap
    val same = stsTiny.truth.collect().count { r =>
      lefts(r.getString(0)) == rights(r.getString(1))
    }
    assert(same > 0) // the score-5 slice
  }
}
