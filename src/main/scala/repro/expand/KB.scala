package repro.expand

import org.apache.spark.sql.{DataFrame, SparkSession}

/** External knowledge resource for graph expansion (paper §III-A).
  *
  * The paper plugs in ConceptNet, DBpedia or WordNet; offline we expose
  * the same interface over a synthetic triple store ([[SynthKB]]). A
  * resource is a set of undirected relations `(subject, object)` between
  * term labels — relation names are irrelevant to Algorithm 2, which only
  * adds edges.
  */
trait KnowledgeBase {
  /** All `(subject, object)` pairs in the resource as a DataFrame. */
  def triples(spark: SparkSession): DataFrame
}

/** In-memory triple store; subjects/objects must already be in graph-term
  * form (stemmed, `_`-joined). Stands in for DBpedia/ConceptNet — the
  * synthetic world registers both *useful* relations (connecting entities
  * that co-occur in ground-truth matches) and *noise* relations (the long
  * tail the paper prunes: 800+ relations for Tarantino of which few help).
  */
final case class SynthKB(pairs: Seq[(String, String)]) extends KnowledgeBase {
  override def triples(spark: SparkSession): DataFrame = {
    import spark.implicits._
    pairs.distinct.toDF("subject", "object")
  }
}
