package repro.core

import repro.{Oracle, SparkSpec}

class CorpusSpec extends SparkSpec {
  import org.apache.spark.sql.functions._

  private lazy val table = {
    import spark.implicits._
    Seq(
      ("1", "sixth sense", "shyamalan", "thriller"),
      ("2", "pulp fiction", "tarantino", "drama"))
      .toDF("docId", "title", "director", "genre")
  }
  private lazy val tc = TableCorpus("movies", table, "docId")

  private lazy val texts = {
    import spark.implicits._
    Seq(
      ("p1", "a bland film by willis. a comedy after all"),
      ("p2", "willis asks; rated pg13"))
      .toDF("docId", "text")
  }
  private lazy val pc = TextCorpus("reviews", texts)

  test("table corpus: one unit per non-null cell") {
    assert(tc.units.count() == 6) // 2 rows × 3 non-id attrs
  }
  test("table corpus: unit rows match DuckDB unpivot") {
    val units = tc.units.select("docId", "unit", "attr")
    Oracle.assertEquivalent(
      units,
      """SELECT docId, title AS unit, 'title' AS attr FROM movies
         UNION ALL SELECT docId, director, 'director' FROM movies
         UNION ALL SELECT docId, genre, 'genre' FROM movies""",
      "movies" -> table)
  }
  test("table corpus units carry attr names") {
    val attrs = tc.units.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(attrs == Set("title", "director", "genre"))
  }
  test("table corpus skips null and empty cells") {
    import spark.implicits._
    val t = Seq(("1", null.asInstanceOf[String], "x"), ("2", " ", "y")).toDF("docId", "a", "b")
    assert(TableCorpus("t", t, "docId").units.count() == 2)
  }
  test("table corpus isTable") { assert(tc.isTable && !pc.isTable) }

  test("text corpus: sentence splitting") {
    val u = pc.units.where(col("docId") === "p1").collect().map(_.getString(1))
    assert(u.toSet == Set("a bland film by willis", "a comedy after all"))
  }
  test("text corpus: attr is null") {
    assert(pc.units.where(col("attr").isNotNull).count() == 0)
  }
  test("text corpus: semicolon splits sentences") {
    assert(pc.units.where(col("docId") === "p2").count() == 2)
  }

  test("docTerms distinct per doc") {
    val dt = pc.docTerms(spark, 1)
    val dup = dt.groupBy("docId", "term").count().where(col("count") > 1)
    assert(dup.count() == 0)
  }
  test("docTerms includes bigrams at maxN=2 within sentences only") {
    val dt = pc.docTerms(spark, 2).where(col("docId") === "p1")
    val terms = dt.select("term").collect().map(_.getString(0)).toSet
    assert(terms.contains("bland_film"))
    // "willis" ends sentence 1, "comedy" starts (after stop-word removal)
    // sentence 2 — no cross-sentence bigram:
    assert(!terms.exists(t => t.startsWith("willi_comedi")))
  }
  test("docTerms of table uses cell values as units") {
    val dt = tc.docTerms(spark, 2)
    val terms = dt.select("term").collect().map(_.getString(0)).toSet
    assert(terms.contains("sixth_sens"))
    assert(!terms.contains("sens_shyamalan")) // no cross-cell n-grams
  }
  test("distinctTokenCount counts stemmed unigrams") {
    // movies table tokens: sixth, sens, pulp, fiction, shyamalan,
    // tarantino, thriller, drama
    assert(tc.distinctTokenCount(1) == 8)
  }
  test("taxonomy corpus: hierarchy edges") {
    import spark.implicits._
    val df = Seq(("c0", "root", null.asInstanceOf[String]), ("c1", "child one", "c0"),
      ("c2", "child two", "c0")).toDF("docId", "text", "parent")
    val tax = TaxonomyCorpus("t", df)
    assert(tax.hierarchy(spark).count() == 2)
    assert(tax.units.count() == 3)
  }
  test("docIds are the sorted distinct unit ids, read once") {
    import spark.implicits._
    // t0: every cell null or blank; p0: null text; c9: null concept text.
    // None of them has a unit, so none has an id (or a metadata node).
    val t = Seq(("t2", "b", "x"), ("t0", null.asInstanceOf[String], " "), ("t1", "a", null))
      .toDF("docId", "a", "b")
    val p = Seq(("p2", "one. two"), ("p0", null.asInstanceOf[String]), ("p1", "three"))
      .toDF("docId", "text")
    val c = Seq(("c1", "child", "c0"), ("c9", null.asInstanceOf[String], "c0"),
      ("c0", "root", null.asInstanceOf[String])).toDF("docId", "text", "parent")
    val cases = Seq(
      TableCorpus("t", t, "docId") -> Seq("t1", "t2"),
      TextCorpus("p", p) -> Seq("p1", "p2"),
      TaxonomyCorpus("c", c) -> Seq("c0", "c1"))
    cases.foreach { case (corpus, expected) =>
      val fromUnits = corpus.units.select("docId").distinct().collect().map(_.getString(0)).sorted.toSeq
      assert(corpus.docIds == fromUnits)
      assert(corpus.docIds == expected)
      assert(corpus.docIds eq corpus.docIds)
    }
  }
  test("terms are each unit's TextPrep.terms, deduplicated, and read once") {
    import spark.implicits._
    // `b` of t1 holds only stop-words: attribute b, but no term.
    val t = Seq(("t1", "sixth sense sixth", "the of"), ("t2", "sense", "pulp fiction"))
      .toDF("docId", "a", "b")
    val p = Seq(("p1", "willis rocks. willis rocks"), ("p2", "a bland film; bland film"))
      .toDF("docId", "text")
    val c = Seq(("c0", "audit programme audit", null.asInstanceOf[String]), ("c1", "audit", "c0"))
      .toDF("docId", "text", "parent")
    Seq(TableCorpus("t", t, "docId"), TextCorpus("p", p), TaxonomyCorpus("c", c)).foreach { corpus =>
      val units = corpus.units.select("docId", "attr", "unit").collect()
        .map(r => (r.getString(0), r.getString(1), r.getString(2))).toSeq
      Seq(1, 2).foreach { maxN =>
        val expected = units.flatMap { case (d, a, u) => TextPrep.terms(u, maxN).map((d, a, _)) }.distinct
        val got = corpus.terms(maxN)
        assert(got.rows.size == expected.size && got.rows.toSet == expected.toSet)
        assert(got.attrs.sorted == units.map(_._2).filter(_ != null).distinct.sorted)
        assert(corpus.terms(maxN) eq got)
      }
    }
  }
  test("plain corpora have empty hierarchy") {
    assert(tc.hierarchy(spark).count() == 0)
    assert(pc.hierarchy(spark).count() == 0)
  }
}
