package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Uniform corpus model (paper §II).
  *
  * A corpus is one of:
  *  - a relational **table**: each tuple is a document; attributes become
  *    extra metadata nodes;
  *  - **structured text** (taxonomy): each node is a document with an
  *    optional parent, giving metadata–metadata edges;
  *  - plain **text**: each sentence/paragraph is a document.
  *
  * Internally every corpus is a DataFrame of text *units*:
  * `(docId: String, unit: String, attr: String|null)` — one row per cell
  * value (tables) or per sentence (texts). n-gram terms are built within a
  * unit, matching the paper's term construction.
  */
sealed trait Corpus {
  def name: String

  /** `(docId, unit, attr)` — attr is null for non-table corpora. */
  def units: DataFrame

  /** Each unit's `(docId, attr, TextPrep.terms1(unit))`, tokenised in one
    * narrow Spark job and then kept on the driver: a corpus is immutable,
    * so its tokens hold for its whole life. [[docIds]] and every
    * [[terms]]`(maxN)` are read from it.
    */
  private lazy val unitTokens: IndexedSeq[(String, String, Seq[String])] = {
    val u = units
    import u.sparkSession.implicits._
    u.select("docId", "attr", "unit").as[(String, String, String)]
      .mapPartitions(_.map { case (docId, attr, unit) => (docId, attr, TextPrep.terms1(unit)) })
      .collect().toIndexedSeq
  }

  /** Sorted distinct document ids of [[units]]. A document without a unit
    * (a tuple whose cells are all null or blank, a null text) has no id
    * here and so no metadata node.
    */
  lazy val docIds: IndexedSeq[String] = unitTokens.map(_._1).distinct.sorted

  /** `(child, parent)` doc-id pairs for structured text; empty otherwise. */
  def hierarchy(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq.empty[(String, String)].toDF("child", "parent")
  }

  def isTable: Boolean = false

  private val termsByMaxN = scala.collection.mutable.Map.empty[Int, Corpus.Terms]

  /** The corpus's terms at `maxN`, built on the driver from the units'
    * tokens once per `maxN`.
    */
  def terms(maxN: Int): Corpus.Terms =
    synchronized(termsByMaxN.getOrElseUpdate(maxN, Corpus.Terms.of(unitTokens, maxN)))

  /** [[terms]]`(maxN).rows` as a DataFrame `(docId, attr, term)`. */
  def docTerms(spark: SparkSession, maxN: Int): DataFrame = {
    import spark.implicits._
    terms(maxN).rows.toDF("docId", "attr", "term")
  }

  /** Number of distinct unigram tokens — used to pick the first corpus in
    * graph creation (paper §II-B: the corpus with fewer distinct tokens
    * seeds the data nodes). Read from [[terms]]`(maxN)`, whose unigrams are
    * the same at every `maxN`: tokens never contain `_`.
    */
  def distinctTokenCount(maxN: Int): Int =
    terms(maxN).rows.iterator.map(_._3).filterNot(_.contains('_')).distinct.size
}

object Corpus {

  /** A corpus's terms at one `maxN`: the distinct `(docId, attr, term)`
    * rows of [[TextPrep.terms]] over each unit, and the distinct attributes
    * of its units, a unit without terms (an all-stop-word cell) included.
    * `attr` is null outside tables.
    */
  final case class Terms(rows: IndexedSeq[(String, String, String)], attrs: IndexedSeq[String])

  object Terms {
    /** From each unit's `(docId, attr, TextPrep.terms1(unit))`. */
    def of(unitTokens: Seq[(String, String, Seq[String])], maxN: Int): Terms = Terms(
      unitTokens.iterator.flatMap { case (docId, attr, toks) =>
        TextPrep.ngrams(toks, maxN).map((docId, attr, _))
      }.distinct.toIndexedSeq,
      unitTokens.iterator.map(_._2).filter(_ != null).distinct.toIndexedSeq)
  }
}

/** Relational table corpus: `df` must contain `idCol`; every other column
  * is an attribute whose cell values become text units.
  */
final case class TableCorpus(name: String, df: DataFrame, idCol: String) extends Corpus {
  override def isTable: Boolean = true

  override def units: DataFrame = {
    val attrs = df.columns.filterNot(_ == idCol)
    val unitCols = attrs.map { a =>
      struct(lit(a).as("attr"), col(a).cast("string").as("unit"))
    }
    df.select(col(idCol).cast("string").as("docId"), explode(array(unitCols.toIndexedSeq: _*)).as("u"))
      .select(col("docId"), col("u.unit").as("unit"), col("u.attr").as("attr"))
      .where(col("unit").isNotNull && length(trim(col("unit"))) > 0)
  }
}

/** Plain-text corpus: `df` has `(docId, text)`; sentences are split on
  * `.`, `!`, `?`, `;` and newlines so n-grams never cross sentences.
  */
final case class TextCorpus(name: String, df: DataFrame) extends Corpus {
  override def units: DataFrame = {
    val sentUdf = udf((s: String) =>
      if (s == null) Seq.empty[String]
      else s.split("[.!?;\n]+").toSeq.map(_.trim).filter(_.nonEmpty))
    df.select(col("docId").cast("string").as("docId"), explode(sentUdf(col("text"))).as("unit"))
      .withColumn("attr", lit(null).cast("string"))
  }
}

/** Structured-text corpus (taxonomy): `df` has `(docId, text, parent)`;
  * `parent` is the docId of the parent concept or null for roots.
  */
final case class TaxonomyCorpus(name: String, df: DataFrame) extends Corpus {
  override def units: DataFrame =
    df.select(
        col("docId").cast("string").as("docId"),
        col("text").as("unit"),
        lit(null).cast("string").as("attr"))
      .where(col("unit").isNotNull)

  override def hierarchy(spark: SparkSession): DataFrame =
    df.where(col("parent").isNotNull)
      .select(col("docId").cast("string").as("child"), col("parent").cast("string").as("parent"))
}
